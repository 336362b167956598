"""Profiling your own architecture.

PRoof accepts any graph built with the IR's GraphBuilder (the stand-in
for an exported ONNX model): define the network, optionally sanity-run
it with the numpy reference executor, save/load it as a model file,
and profile it on any platform/backend/precision combination.

Run:  python examples/custom_model.py
"""
import numpy as np

from repro.core import Profiler, format_report
from repro.ir import Executor, GraphBuilder, load, save
from repro.models.common import conv_bn_act, se_block

# --- 1. define a small custom CNN with the builder -----------------------
b = GraphBuilder("my-edge-net")
x = b.input("image", (8, 3, 96, 96))
y = conv_bn_act(b, x, 16, 3, stride=2, act="silu", name="stem")
for i, (ch, stride) in enumerate([(32, 2), (64, 2), (64, 1)]):
    with b.scope(f"stage{i}"):
        y = conv_bn_act(b, y, ch, 3, stride=stride, act="silu", name="conv")
        y = se_block(b, y, ch // 4, name="se")
y = b.global_avgpool(y)
y = b.flatten(y)
logits = b.linear(y, 10, name="head")
graph = b.finish(logits)
print(f"built {graph}")

# --- 2. sanity-run it with the reference executor ------------------------
out = Executor(graph).run({"image": np.random.default_rng(0).normal(
    size=(8, 3, 96, 96)).astype(np.float32)})
print(f"executor output shape: {out[logits].shape}")

# --- 3. save / load the model file (the reproduction's "ONNX") -----------
save(graph, "my_edge_net.json")
graph = load("my_edge_net.json")
print("round-tripped through my_edge_net.json")

# --- 4. profile on two candidate deployment targets ----------------------
for platform_name, backend, precision in [
    ("orin-nx", "trt-sim", "fp16"),
    ("rpi4b", "ort-sim", "fp32"),
]:
    report = Profiler(backend, platform_name, precision).profile(graph)
    e = report.end_to_end
    print(f"\n--- {platform_name} ({backend}, {precision}) ---")
    print(f"latency {e.latency_seconds * 1e3:7.2f} ms   "
          f"{e.throughput_per_second:7.0f} img/s   "
          f"AI {e.arithmetic_intensity:5.1f}   "
          f"{e.achieved_flops / 1e9:8.1f} GFLOP/s "
          f"({e.achieved_flops / report.peak_flops:.1%} of peak)")
    worst = report.top_layers(1)[0]
    print(f"hottest layer: {worst.name} "
          f"({worst.latency_seconds / e.latency_seconds:.0%} of latency, "
          f"{worst.op_class})")

# --- 5. full report for the edge GPU --------------------------------------
report = Profiler("trt-sim", "orin-nx", "fp16").profile(graph)
print()
print(format_report(report, top=10))
