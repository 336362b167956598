"""Shared fixtures for the service-layer tests.

Most concurrency tests inject a fast synthetic runner instead of the
real profiler, so they exercise queueing/dedup/retry policy without
paying for model construction on every job.  Retry backoff and the
fleet supervisor's poll period are module constants; the fixtures below
shorten them for tests that would otherwise sleep them out.
"""
import pytest

from repro.core.report import EndToEnd, LayerProfile, MetricSource, \
    ProfileReport
from repro.service import dispatch, policy


def synthetic_report(name="m", latency=1e-3, flop=1e9):
    layer = LayerProfile(
        name=f"{name}/conv", kind="execution", op_class="conv",
        latency_seconds=latency, flop=flop,
        read_bytes=1e6, write_bytes=5e5)
    return ProfileReport(
        model_name=name, backend_name="trt-sim", platform_name="a100",
        precision="fp16", batch_size=1,
        metric_source=MetricSource.PREDICTED,
        layers=[layer],
        end_to_end=EndToEnd(latency_seconds=latency, flop=flop,
                            memory_bytes=1.5e6),
        peak_flops=312e12, peak_bandwidth=2.0e12)


@pytest.fixture
def make_report():
    return synthetic_report


@pytest.fixture
def fast_backoff(monkeypatch):
    """A 1 ms first retry backoff."""
    monkeypatch.setattr(policy, "BACKOFF_SECONDS", 0.001)


@pytest.fixture
def fast_supervisor(monkeypatch):
    """A fleet supervisor that looks for dead shards every 50 ms."""
    monkeypatch.setattr(dispatch, "SUPERVISOR_POLL_SECONDS", 0.05)
