"""Run one workload, print its metrics, write its result file.

The untraced run prints the end-to-end metrics; the traced run (``--trace
1``) measures an untraced half and a traced half and prints the
per-layer metrics.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro.obs.trace import Tracer

from . import measure, schedule
from .oracle import DigestOracle, plan_baseline
from .workloads import (PlanExec, ProfileCold, RunResult, ServiceLadder,
                        instrumented)

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HARNESS_DIR)
ROOT = os.path.dirname(BENCH_DIR)
RUN_PY = os.path.join(BENCH_DIR, "run.py")
RESULTS_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("profile-cold", "service-threads", "service-fleet", "plan-exec")
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120

#: every end-to-end metric: name -> (unit, in BENCHMARK.json).  Printed
#: only: the latencies, which on the service workloads mostly measure
#: the top rungs' backlog and so move with it from run to run (the
#: closed loops' latency is carried by ops_per_s); goodput_rps, a rung
#: of the ladder, which the closed loops lack; and fail_frac, 0 at HEAD,
#: which ``failed``/``attempted`` carry.
END_TO_END: Dict[str, Tuple[str, bool]] = {
    "setup_s": ("s", True),
    "ops_per_s": ("1/s", True),
    "latency_p50_ms": ("ms", False),
    "latency_p90_ms": ("ms", False),
    "latency_p99_ms": ("ms", False),
    "goodput_rps": ("req/s", False),
    "cpu_ms_per_op": ("ms", True),
    "peak_rss_mb": ("MB", True),
    "fail_frac": ("ratio", False),
}

_LAYER_UNITS = (("_ms", "ms"), ("_frac", "ratio"), ("hit_rate", "ratio"),
                ("_bytes", "bytes"), ("_slope", "slope"))


def per_layer_names() -> List[str]:
    """Every per-layer metric, in table order."""
    names = ["models.build_ms", "ir.shape_inference_ms", "ir.fingerprint_ms",
             "ir.nodes", "backends.compile_ms", "backends.layers",
             "backends.mapping_ms", "backends.mapping_slope",
             "analysis.arep_ms", "analysis.oar_ms", "analysis.assemble_ms"]
    names += [f"analysis.cache.{t}.hit_rate"
              for t in ("shapes", "arep", "mapped", "layer", "structure")]
    names += ["analysis.layerstore.entries", "core.layer_profiles_ms",
              "core.roofline_ms", "core.unattributed_frac"]
    names += [f"core.profile.{m}_ms" for m in schedule.PROFILE_POOL]
    names += ["service.submit_ms", "service.queue_wait_ms", "service.exec_ms",
              "service.result_cache.hit_rate", "service.dedup_frac",
              "service.shed_frac", "service.retries", "service.negative_hits",
              "service.shard.busy_frac", "service.shard.imbalance",
              "service.ipc_ms", "service.respawns",
              "plan.compile_ms", "plan.first_run_ms"]
    names += [f"plan.run.{m}.O{level}_ms" for m in schedule.PLAN_MODELS
              for level in schedule.PLAN_LEVELS]
    names += ["plan.steps", "plan.fused_steps", "plan.arena_peak_bytes",
              "plan.nonfinite_outputs", "obs.trace_overhead_frac",
              "loadgen.late_p99_ms"]
    return names


def layer_unit(name: str) -> str:
    for suffix, unit in _LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def make_workload(name: str, seed: int, seconds: float, oracle):
    if name == "profile-cold":
        return ProfileCold(seed, oracle)
    if name == "service-threads":
        return ServiceLadder(seed, oracle, seconds, processes=1)
    if name == "service-fleet":
        return ServiceLadder(seed, oracle, seconds, processes=2)
    if name == "plan-exec":
        return PlanExec(seed, plan_baseline())
    raise ValueError(f"unknown workload {name!r}")


def measured_run(args, oracle, seconds: float, tracer=None) -> RunResult:
    workload = make_workload(args.workload, args.seed, seconds, oracle)
    try:
        workload.setup(tracer)
        return workload.run(seconds, tracer)
    finally:
        workload.close()


def setup_seconds(args) -> List[float]:
    """Time from a fresh interpreter's start until the workload's first
    operation could run, once per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=False)
        ready = [line for line in proc.stdout.splitlines()
                 if line.startswith("READY ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        samples.append(float(ready[-1].split()[1]) - started)
    return samples


def end_to_end(res: RunResult, setup_s: float) -> Dict[str, float]:
    lat = measure.latency_summary(res.latencies_ms)
    done = res.completed
    return {
        "setup_s": setup_s,
        "ops_per_s": done / res.window_s if res.window_s else 0.0,
        "latency_p50_ms": lat["p50"],
        "latency_p90_ms": lat["p90"],
        "latency_p99_ms": lat["p99"],
        "goodput_rps": res.goodput_rps,
        "cpu_ms_per_op": res.cpu_s * 1e3 / done if done else 0.0,
        "peak_rss_mb": res.peak_rss_mb,
        "fail_frac": res.failed / res.attempted if res.attempted else 1.0,
    }


def _table(rows) -> List[str]:
    width = max(len(name) for name, _, _ in rows)
    return [f"  {name:<{width}}  {value:>14}  {unit}"
            for name, value, unit in rows]


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main(args) -> int:
    oracle = DigestOracle.load()
    if args.setup_only:
        workload = make_workload(args.workload, args.seed, args.seconds,
                                 oracle)
        try:
            workload.setup()
            print(f"READY {time.monotonic()!r}", flush=True)
        finally:
            workload.close()
        return 0

    host = measure.host_record(ROOT)
    host["loadavg_start"] = os.getloadavg()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host}
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    if args.trace:
        base = measured_run(args, oracle, args.seconds / 2)
        tracer = Tracer(max_spans=1_000_000)
        with instrumented(tracer):
            res = measured_run(args, oracle, args.seconds / 2, tracer)
        layers = dict.fromkeys(per_layer_names(), 0.0)
        layers.update(res.layers)
        base_cpu = end_to_end(base, 0.0)["cpu_ms_per_op"]
        traced_cpu = end_to_end(res, 0.0)["cpu_ms_per_op"]
        layers["obs.trace_overhead_frac"] = \
            traced_cpu / base_cpu - 1.0 if base_cpu else 0.0
        attempted = base.attempted + res.attempted
        failed = base.failed + res.failed
        wrong = base.wrong + res.wrong
        correct = base.correct and res.correct
        metrics = {name: {"value": float(layers[name]),
                          "unit": layer_unit(name)}
                   for name in per_layer_names()}
        record["untraced_half"] = end_to_end(base, 0.0)
        lines.append("per-layer metrics (traced half; 0 = layer not "
                     "exercised by this workload):")
        lines += _table([(n, _fmt(m["value"]), m["unit"])
                         for n, m in metrics.items()])
    else:
        res = measured_run(args, oracle, args.seconds)
        setups = setup_seconds(args)
        values = end_to_end(res, statistics.median(setups))
        record["setup_s_samples"] = setups
        record["latency"] = measure.latency_summary(res.latencies_ms)
        attempted, failed, wrong = res.attempted, res.failed, res.wrong
        correct = res.correct
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, (unit, listed) in END_TO_END.items() if listed}
        lat = record["latency"]
        lines.append(f"end-to-end metrics ({lat['n']} latency samples; "
                     f"{lat['above_p90']} above p90, {lat['above_p99']} "
                     f"above p99 - a tail with fewer than 10 is indicative "
                     f"only):")
        lines += _table([(n, _fmt(values[n]), unit)
                         for n, (unit, _) in END_TO_END.items()])
    for rung in res.detail.get("rungs", []):
        lines.append("  rung {rate_rps:>6.1f} req/s  n={requests:<4} "
                     "p50={p50_ms:9.2f} ms  p99={p99_ms:9.2f} ms  "
                     "backlog {backlog_start}->{backlog_end}  "
                     "{verdict}".format(
                         verdict="ok" if rung["ok"] else "MISSED", **rung))
    for error in res.detail.get("errors", [])[:5]:
        lines.append(f"  error: {error}")
    host["loadavg_end"] = os.getloadavg()
    lines.append("host: " + json.dumps(host, sort_keys=True))
    record.update({"attempted": attempted, "failed": failed, "wrong": wrong,
                   "metrics": metrics, "detail": res.detail})
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    lines.append(f"result file: {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0
