"""Benchmark: PRoof's own cost (the paper's 'negligible analytical
overhead' claim) — full profiling runs on small/medium/large models.

Unlike the per-table benches these use several rounds: the profiler is
pure computation, so steady-state timing is meaningful.
"""
import pytest

from repro.core.profiler import Profiler
from repro.models import build_model


@pytest.mark.parametrize("model,batch", [
    ("mobilenetv2-10", 32),
    ("resnet50", 32),
    ("swin-small", 8),
])
def test_predicted_mode_profiling_cost(benchmark, model, batch):
    """Analytical profiling must stay in the seconds range even for the
    1114-node swin-small — against the simulated NCU's ~half hour."""
    profiler = Profiler("trt-sim", "a100", "fp16")

    def run():
        return profiler.profile(build_model(model, batch_size=batch))

    report = benchmark.pedantic(run, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert report.end_to_end.latency_seconds > 0
    assert report.profiling_overhead_seconds == 0.0


def test_graph_construction_cost(benchmark):
    """Building the biggest zoo model (SD UNet) with shape inference."""
    graph = benchmark.pedantic(
        lambda: build_model("sd-unet", batch_size=1, latent_size=64),
        rounds=3, iterations=1, warmup_rounds=1)
    assert graph.num_parameters() > 8e8
