"""Distributed serving estimation (the paper's §5 future work,
implemented).

Given one single-device PRoof profile, project multi-GPU serving under
pipeline or tensor parallelism and pick a deployment for a latency SLO.

Run:  python examples/distributed_serving.py
"""
from repro.core import Profiler
from repro.distribution import (NVLINK, PCIE_GEN4, estimate_pipeline,
                                estimate_tensor_parallel)
from repro.models import build_model

MODEL, BATCH = "vit-base", 64
report = Profiler("trt-sim", "a100", "fp16").profile(
    build_model(MODEL, batch_size=BATCH))
base_ms = report.end_to_end.latency_seconds * 1e3
print(f"{MODEL} bs={BATCH} on one A100: {base_ms:.2f} ms "
      f"({report.end_to_end.throughput_per_second:.0f} samples/s)\n")

print("=== pipeline parallelism (NVLink) ===")
print(f"{'devices':>8s} {'iter(ms)':>9s} {'fill(ms)':>9s} "
      f"{'speedup':>8s} {'eff':>6s} {'bubble':>7s}")
for n in (1, 2, 4, 8):
    est = estimate_pipeline(report, n, NVLINK)
    print(f"{n:8d} {est.iteration_seconds * 1e3:9.2f} "
          f"{est.fill_latency_seconds * 1e3:9.2f} "
          f"{est.throughput_speedup:7.2f}x "
          f"{est.parallel_efficiency:6.1%} {est.bubble_fraction:7.1%}")

print("\n=== tensor parallelism ===")
print(f"{'devices':>8s} {'link':>14s} {'iter(ms)':>9s} {'speedup':>8s} "
      f"{'eff':>6s} {'comm':>6s}")
for link in (NVLINK, PCIE_GEN4):
    for n in (2, 4, 8):
        est = estimate_tensor_parallel(report, n, link)
        print(f"{n:8d} {link.name:>14s} {est.iteration_seconds * 1e3:9.2f} "
              f"{est.latency_speedup:7.2f}x {est.parallel_efficiency:6.1%} "
              f"{est.communication_fraction:6.1%}")

print("\n=== picking a deployment for a 10 ms SLO ===")
SLO_MS = 10.0
candidates = []
for n in (1, 2, 4, 8):
    pipe = estimate_pipeline(report, n, NVLINK)
    candidates.append((f"pipeline x{n}", pipe.iteration_seconds * 1e3,
                       pipe.throughput_speedup / n))
    tp = estimate_tensor_parallel(report, n, NVLINK)
    candidates.append((f"tensor x{n}", tp.iteration_seconds * 1e3,
                       tp.latency_speedup / n))
feasible = [(name, ms, eff) for name, ms, eff in candidates if ms <= SLO_MS]
if feasible:
    name, ms, eff = max(feasible, key=lambda c: c[2])
    print(f"cheapest deployment meeting {SLO_MS:.0f} ms: {name} "
          f"({ms:.2f} ms, {eff:.0%} efficiency)")
else:
    print(f"no configuration meets {SLO_MS:.0f} ms — shrink the batch "
          "or quantize (int8 halves most layer latencies).")
