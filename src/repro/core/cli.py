"""PRoof command-line interface.

Examples::

    proof run --model resnet50 --platform a100 --backend trt-sim \
              --precision fp16 --batch 128 --svg roofline.svg
    proof run --model vit-tiny --platform a100 --mode measure
    proof peak --platform orin-nx
    proof serve --port 8080 --workers 4 --cache-mb 64
    proof serve --port 8080 --processes 4 --shard-queue-size 16
    proof batch resnet50 vit-tiny --repeat 2
    proof partition mobilenetv2-10 --devices 4 --strategy pipeline
    proof check --fuzz 200 --seed 0
    proof list
"""
from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..backends import BACKENDS, UnsupportedModelError, backend_by_name
from ..hardware.specs import PLATFORMS, platform
from ..ir.tensor import DataType
from ..models.registry import MODEL_ZOO, build_model
from ..obs import (Tracer, configure_logging, format_span_tree, set_tracer,
                   write_chrome_trace)
from .dataviewer import format_report, render_roofline_svg
from .profiler import Profiler
from .peaktest import measure_peaks
from .report import MetricSource

__all__ = ["main", "build_parser"]


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    """Observability flags shared by the profiling subcommands."""
    sub.add_argument("--trace", metavar="PATH",
                     help="write a Chrome-trace JSON of this run's "
                          "pipeline spans (open in Perfetto / "
                          "about://tracing)")
    sub.add_argument("--trace-summary", action="store_true",
                     help="with --trace: also print the span tree")
    sub.add_argument("--log-level", default=None,
                     choices=["debug", "info", "warning", "error"],
                     help="enable repro.* logging at this level")


#: every deployment precision the profiler accepts — bf16 runs the
#: fp16-rate tensor-core path, uint8 the signed-int8 (DP4A/IMMA) path
PRECISION_CHOICES = ["fp32", "fp16", "bf16", "int8", "uint8"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proof",
        description="PRoof: hierarchical DNN profiling with roofline "
                    "analysis (ICPP'24 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="profile a model")
    run.add_argument("--model", required=True, choices=sorted(MODEL_ZOO))
    run.add_argument("--platform", default="a100", choices=sorted(PLATFORMS))
    run.add_argument("--backend", default="trt-sim", choices=sorted(BACKENDS))
    run.add_argument("--precision", default="fp16",
                     choices=PRECISION_CHOICES)
    run.add_argument("--batch", type=int, default=1)
    run.add_argument("--mode", default="predict",
                     choices=["predict", "measure"],
                     help="analytical model vs simulated hardware counters")
    run.add_argument("--top", type=int, default=20,
                     help="layers to show in the table (0 = all)")
    run.add_argument("--json", metavar="PATH",
                     help="write the full report as JSON")
    run.add_argument("--svg", metavar="PATH",
                     help="write the layer-wise roofline chart as SVG")
    run.add_argument("--html", metavar="PATH",
                     help="write the full visual report as standalone HTML")
    run.add_argument("--insights", action="store_true",
                     help="append automated optimization guidance")
    run.add_argument("--by-module", type=int, metavar="DEPTH", default=0,
                     help="append a module-level rollup at this depth")
    run.add_argument("--optimize", type=int, default=1,
                     choices=[0, 1, 2, 3],
                     help="plan optimization level for --execute: "
                          "0 = shape-constant folding only, "
                          "1 = bit-exact fusion + fast kernels (default), "
                          "2 = + BatchNorm folding (numerics-relaxed), "
                          "3 = + calibrated subnormal flush")
    run.add_argument("--execute", action="store_true",
                     help="also compile and run the model on the numpy "
                          "runtime with random feeds, reporting plan "
                          "shape and wall time")
    _add_obs_args(run)

    peak = sub.add_parser("peak", help="measure achieved roofline peaks")
    peak.add_argument("--platform", default="a100", choices=sorted(PLATFORMS))
    peak.add_argument("--precision", default="fp16",
                      choices=PRECISION_CHOICES)
    peak.add_argument("--gpu-clock", type=float, default=None,
                      help="override the compute clock (MHz, Jetson-style)")
    peak.add_argument("--mem-clock", type=float, default=None,
                      help="override the memory clock (MHz)")
    _add_obs_args(peak)

    swp = sub.add_parser("sweep", help="batch/precision sweep for a model")
    swp.add_argument("--model", required=True, choices=sorted(MODEL_ZOO))
    swp.add_argument("--platform", default="a100", choices=sorted(PLATFORMS))
    swp.add_argument("--backend", default="trt-sim", choices=sorted(BACKENDS))
    swp.add_argument("--precision", default="fp16",
                     choices=PRECISION_CHOICES)
    swp.add_argument("--precisions", default=None,
                     help="comma-separated precisions to sweep (e.g. "
                          "fp32,fp16,bf16,int8,uint8); overrides "
                          "--precision and profiles every precision × "
                          "batch point, sharing layer-cache records "
                          "across points")
    swp.add_argument("--batches", default="1,4,16,64,256",
                     help="comma-separated batch sizes")
    swp.add_argument("--cache-stats", action="store_true",
                     help="print the full per-tier analysis-cache table "
                          "(hits, misses, evictions, hit rate) for this "
                          "sweep")
    _add_obs_args(swp)

    srv = sub.add_parser("serve",
                         help="run the profiling service (HTTP JSON API)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8080,
                     help="0 binds an ephemeral port")
    srv.add_argument("--workers", type=int, default=4,
                     help="worker threads (single-process tier)")
    srv.add_argument("--processes", type=int, default=1,
                     help="shard *processes*; >1 runs the sharded "
                          "multi-process fleet (consistent-hash "
                          "dispatch, per-shard caches, 429 "
                          "load-shedding) instead of the thread pool")
    srv.add_argument("--shard-queue-size", type=int, default=16,
                     help="bounded per-shard queue (fleet mode); a "
                          "full shard sheds load with 429/Retry-After")
    srv.add_argument("--cache-mb", type=float, default=64.0,
                     help="in-memory result-cache budget")
    srv.add_argument("--cache-entries", type=int, default=512)
    srv.add_argument("--cache-dir", default=None,
                     help="directory for the persistent JSON cache tier")
    srv.add_argument("--queue-size", type=int, default=256)

    bat = sub.add_parser("batch",
                         help="profile a list of models through the service")
    bat.add_argument("models", nargs="+", choices=sorted(MODEL_ZOO))
    bat.add_argument("--platform", default="a100", choices=sorted(PLATFORMS))
    bat.add_argument("--backend", default="trt-sim", choices=sorted(BACKENDS))
    bat.add_argument("--precision", default="fp16",
                     choices=PRECISION_CHOICES)
    bat.add_argument("--batch", type=int, default=1)
    bat.add_argument("--workers", type=int, default=4)
    bat.add_argument("--repeat", type=int, default=1,
                     help="submit the list this many times "
                          "(repeats exercise the result cache)")
    _add_obs_args(bat)

    par = sub.add_parser(
        "partition",
        help="profile multi-device partitioned execution "
             "(repro.distribution)")
    par.add_argument("model", choices=sorted(MODEL_ZOO))
    par.add_argument("--devices", type=int, default=4, metavar="N",
                     help="number of identical devices (default 4)")
    par.add_argument("--strategy", default="pipeline",
                     choices=["pipeline", "tensor", "hybrid"])
    par.add_argument("--link", default="auto",
                     help="interconnect: auto (platform default), "
                          "nvlink, pcie, pcie3, gige, or a full link "
                          "name (see repro.distribution.topology)")
    par.add_argument("--topology", default="ring",
                     choices=["ring", "fully-connected", "host-bridged"],
                     help="device topology (host-bridged models a "
                          "contended PCIe host bridge)")
    par.add_argument("--platform", default="a100", choices=sorted(PLATFORMS))
    par.add_argument("--backend", default="trt-sim", choices=sorted(BACKENDS))
    par.add_argument("--precision", default="fp16",
                     choices=PRECISION_CHOICES)
    par.add_argument("--batch", type=int, default=32)
    par.add_argument("--microbatches", type=int, default=None,
                     help="micro-batches to simulate "
                          "(default 2 x pipeline stages)")
    par.add_argument("--top", type=int, default=12,
                     help="communication-bound layers to list (0 = all)")
    par.add_argument("--timeline", action="store_true",
                     help="print the ASCII per-device timeline")
    par.add_argument("--json", metavar="PATH",
                     help="write the distribution report as JSON")
    par.add_argument("--svg", metavar="PATH",
                     help="write the per-device roofline chart as SVG "
                          "(and <PATH>.timeline.svg with the Gantt)")
    par.add_argument("--html", metavar="PATH",
                     help="write the standalone visual report as HTML")
    _add_obs_args(par)

    chk = sub.add_parser(
        "check",
        help="run the differential correctness harness (repro.check)")
    chk.add_argument("--fuzz", type=int, default=50, metavar="N",
                     help="number of random graphs to fuzz (0 disables)")
    chk.add_argument("--seed", type=int, default=0,
                     help="base seed for graph and feed generation")
    chk.add_argument("--corpus", default=None, metavar="DIR",
                     help="regression corpus directory to replay "
                          "(default: tests/check/corpus when present)")
    chk.add_argument("--no-corpus", action="store_true",
                     help="skip corpus replay")
    chk.add_argument("--no-models", action="store_true",
                     help="skip model-zoo invariant checks")
    chk.add_argument("--rtol", type=float, default=None,
                     help="O2 relative tolerance (default 1e-5)")

    sub.add_parser("list", help="list models, platforms and backends")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    graph = build_model(args.model, batch_size=args.batch)
    source = MetricSource.PREDICTED if args.mode == "predict" \
        else MetricSource.MEASURED
    profiler = Profiler(args.backend, args.platform, args.precision, source)
    try:
        report = profiler.profile(graph)
    except UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_report(report, top=args.top or None))
    if args.execute:
        import time as _time

        import numpy as np

        from ..ir.plan import compile_plan
        plan = compile_plan(graph, optimize=args.optimize)
        rng = np.random.default_rng(0)
        feeds = {}
        for t in graph.inputs:
            dt = np.dtype(t.dtype.to_numpy())
            if dt.kind in "iu":
                feeds[t.name] = rng.integers(0, 100, size=t.shape).astype(dt)
            else:
                feeds[t.name] = rng.standard_normal(t.shape).astype(dt)
        plan.run(feeds)  # warm the scratch buffers / weight caches
        t0 = _time.perf_counter()
        plan.run(feeds)
        elapsed = _time.perf_counter() - t0
        print(f"\nnumpy runtime (optimize={plan.optimize_level}): "
              f"{plan.num_steps} steps, {plan.num_fused_steps} fused, "
              f"{plan.num_folded} folded; {elapsed * 1e3:.2f} ms/run")
    if args.insights:
        from .insights import analyze, format_insights
        print()
        print(format_insights(analyze(report, profiler.roofline())))
    if args.by_module:
        from .hierarchy import aggregate, format_modules
        print()
        print(f"module rollup (depth {args.by_module}):")
        print(format_modules(aggregate(report, depth=args.by_module),
                             total_latency=report.end_to_end.latency_seconds,
                             top=20))
    if args.json:
        report.save(args.json)
        print(f"\nreport written to {args.json}")
    if args.svg:
        svg = render_roofline_svg(
            profiler.roofline(), profiler.layer_points(report),
            title=f"{report.model_name} on {report.platform_name} "
                  f"({report.precision}, bs={report.batch_size})")
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"roofline chart written to {args.svg}")
    if args.html:
        from .htmlreport import save_html_report
        save_html_report(args.html, report, profiler.roofline(),
                         profiler.layer_points(report))
        print(f"visual report written to {args.html}")
    return 0


def _cmd_peak(args: argparse.Namespace) -> int:
    spec = platform(args.platform)
    if args.gpu_clock or args.mem_clock:
        spec = spec.scaled(args.gpu_clock, args.mem_clock)
    result = measure_peaks(spec, precision=args.precision)
    print(f"platform      : {result.platform_name}")
    if spec.is_clock_tunable:
        print(f"clocks        : GPU {result.compute_clock_mhz:.0f} MHz, "
              f"memory {result.memory_clock_mhz:.0f} MHz")
    print(f"FLOP/s (T)    : {result.tflops:.3f}")
    print(f"Memory BW     : {result.bandwidth_gbs:.3f} GB/s")
    if result.power_watts is not None:
        print(f"Power (W)     : {result.power_watts:.1f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import sweep_batch_sizes
    batches = tuple(int(b) for b in args.batches.split(","))
    precisions = [p.strip() for p in args.precisions.split(",")] \
        if args.precisions else None
    sweep = sweep_batch_sizes(
        lambda bs: build_model(args.model, batch_size=bs),
        backend=args.backend, spec=args.platform,
        precision=args.precision, batch_sizes=batches,
        precisions=precisions)
    label = ",".join(precisions) if precisions else args.precision
    print(f"{args.model} on {sweep.platform_name} "
          f"({args.backend}, {label})")
    prec_col = bool(precisions and len(precisions) > 1)
    header = f"{'batch':>6s} {'latency(ms)':>12s} {'samples/s':>11s} " \
             f"{'TFLOP/s':>8s} {'GB/s':>7s} {'AI':>7s}"
    print((f"{'prec':>6s} " if prec_col else "") + header)
    for p in sweep.points:
        row = f"{p.batch_size:6d} {p.latency_seconds * 1e3:12.3f} " \
              f"{p.throughput_per_second:11.0f} " \
              f"{p.achieved_flops / 1e12:8.3f} " \
              f"{p.achieved_bandwidth / 1e9:7.1f} " \
              f"{p.arithmetic_intensity:7.1f}"
        print((f"{p.precision:>6s} " if prec_col else "") + row)
    best = sweep.best_throughput()
    print(f"\npeak throughput at bs={best.batch_size}; throughput "
          f"saturates from bs={sweep.saturation_batch()}")
    if sweep.cache_stats is not None:
        print("cache hit rates: " + _cache_rates_line(sweep.cache_stats))
        if args.cache_stats:
            print(f"\n{'tier':>10s} {'hits':>8s} {'misses':>8s} "
                  f"{'evictions':>9s} {'hit rate':>8s}")
            for tier, s in sweep.cache_stats.items():
                print(f"{tier:>10s} {s['hits']:8d} {s['misses']:8d} "
                      f"{s['evictions']:9d} {s['hit_rate']:7.1%}")
    return 0


def _cache_rates_line(cache_stats: dict) -> str:
    """Compact ``tier rate% (hits/lookups)`` summary, busiest tiers
    first, untouched tiers dropped."""
    parts = []
    for tier, s in sorted(cache_stats.items(),
                          key=lambda kv: -(kv[1]["hits"] + kv[1]["misses"])):
        lookups = s["hits"] + s["misses"]
        if not lookups:
            continue
        parts.append(f"{tier} {s['hit_rate']:.1%} ({s['hits']}/{lookups})")
    return " | ".join(parts) if parts else "(no cache traffic)"


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service import ProfilingServer, make_service
    cache = {"cache_bytes": int(args.cache_mb * (1 << 20)),
             "cache_entries": args.cache_entries, "cache_dir": args.cache_dir}
    if args.processes > 1:
        service = make_service(args.processes,
                               shard_queue_size=args.shard_queue_size, **cache)
        tier = f"{args.processes} shard processes"
    else:
        service = make_service(workers=args.workers,
                               queue_size=args.queue_size, **cache)
        tier = f"{args.workers} workers"
    service.start()
    server = ProfilingServer(service, host=args.host, port=args.port)
    print(f"proof service listening on http://{args.host}:{server.port} "
          f"({tier}, cache {args.cache_mb:g} MB)")
    print("endpoints: POST /profile   GET /job/<id>   GET /stats   "
          "GET /metrics   GET /healthz")
    try:
        # the serve loop runs in the foreground; returning from it (^C)
        # is the shutdown signal, so no cross-thread shutdown() is needed
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from ..obs import get_tracer
    from ..service import JobStatus, ProfilingService
    failed = 0
    # under --trace the service records into the CLI tracer, so job
    # spans and the profiler spans they spawn land in the same file
    cli_tracer = get_tracer()
    with ProfilingService(
            workers=args.workers,
            tracer=cli_tracer if cli_tracer.enabled else None) as service:
        print(f"{'model':22s} {'status':>9s} {'latency(ms)':>12s} "
              f"{'cached':>7s}")
        for _ in range(args.repeat):
            jobs = [(m, service.submit(
                m, batch_size=args.batch, backend=args.backend,
                platform=args.platform, precision=args.precision))
                for m in args.models]
            for model, job in jobs:
                job.wait()
                if job.status == JobStatus.SUCCEEDED:
                    lat = job.report.end_to_end.latency_seconds * 1e3
                    print(f"{model:22s} {job.status:>9s} {lat:12.3f} "
                          f"{'yes' if job.cache_hit else 'no':>7s}")
                else:
                    failed += 1
                    print(f"{model:22s} {job.status:>9s} {'-':>12s} "
                          f"{'-':>7s}  {job.error or ''}")
        stats = service.stats()
        cache = stats["cache"]
        print(f"\ncache: {cache['hits'] + cache['disk_hits']} hits / "
              f"{cache['misses']} misses "
              f"({cache['hit_ratio'] * 100:.1f}% hit ratio), "
              f"{cache['evictions']} evictions")
        counters = stats["counters"]
        print(f"jobs : {counters.get('jobs.submitted', 0)} profiled, "
              f"{counters.get('jobs.cache_hits', 0)} cache hits, "
              f"{counters.get('jobs.deduplicated', 0)} deduplicated")
        tiers = stats["analysis_cache"]
        print("analysis cache: " + ", ".join(
            f"{tier} {v['hits']}/{v['hits'] + v['misses']}"
            for tier, v in tiers.items()) + " (hits/lookups per tier)")
    return 1 if failed else 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from ..distribution import (format_distribution_report,
                                format_timeline_text, link_by_name,
                                make_topology, profile_partitioned,
                                render_device_rooflines_svg,
                                render_distribution_html,
                                render_timeline_svg)
    from ..hardware.specs import platform as _platform
    graph = build_model(args.model, batch_size=args.batch)
    profiler = Profiler(args.backend, args.platform, args.precision)
    try:
        report = profiler.profile(graph)
    except UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = _platform(args.platform)
    if args.link == "auto":
        from ..distribution import default_link
        link = default_link(spec)
    else:
        try:
            link = link_by_name(args.link)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    topology = make_topology(args.topology, args.devices, link)
    dist, plan, sched = profile_partitioned(
        report, args.devices, strategy=args.strategy, spec=spec,
        topology=topology, microbatches=args.microbatches)
    print(format_distribution_report(dist, top=args.top or None))
    if args.timeline:
        print()
        print(format_timeline_text(sched))
    if args.json:
        dist.save(args.json)
        print(f"\ndistribution report written to {args.json}")
    if args.svg:
        title = (f"{dist.model_name} x{dist.num_devices} "
                 f"({dist.strategy}, {dist.link_name})")
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_device_rooflines_svg(dist, title=title))
        tpath = f"{args.svg}.timeline.svg"
        with open(tpath, "w", encoding="utf-8") as fh:
            fh.write(render_timeline_svg(sched, title=title))
        print(f"device rooflines written to {args.svg}; "
              f"timeline to {tpath}")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_distribution_html(dist, sched))
        print(f"visual report written to {args.html}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..check import DEFAULT_MODELS, O2_RTOL, run_check

    corpus: Optional[str] = None
    if not args.no_corpus:
        corpus = args.corpus
        if corpus is None and Path("tests/check/corpus").is_dir():
            corpus = "tests/check/corpus"
    report = run_check(
        fuzz=args.fuzz, seed=args.seed, corpus=corpus,
        models=None if args.no_models else DEFAULT_MODELS,
        rtol=O2_RTOL if args.rtol is None else args.rtol,
        log=print)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_list(_args: argparse.Namespace) -> int:
    print("models:")
    for entry in sorted(MODEL_ZOO.values(), key=lambda e: e.row):
        print(f"  #{entry.row:<3d} {entry.key:22s} ({entry.model_type}) "
              f"{entry.paper_params_m:.1f} M params")
    print("\nplatforms:")
    for name, spec in PLATFORMS.items():
        print(f"  {name:12s} {spec.scenario:16s} "
              f"peak fp16 {spec.peak_flops(DataType.FLOAT16) / 1e12:.1f} T, "
              f"BW {spec.dram_bandwidth / 1e9:.0f} GB/s")
    print("\nbackends: " + ", ".join(sorted(BACKENDS)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "peak": _cmd_peak, "list": _cmd_list,
                "sweep": _cmd_sweep, "serve": _cmd_serve,
                "batch": _cmd_batch, "check": _cmd_check,
                "partition": _cmd_partition}
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return handlers[args.command](args)
    tracer = Tracer(plan_ops=True)
    set_tracer(tracer)
    try:
        return handlers[args.command](args)
    finally:
        set_tracer(None)
        count = write_chrome_trace(trace_path, tracer)
        print(f"trace: {count} events written to {trace_path} "
              f"(load in Perfetto / chrome://tracing)")
        if getattr(args, "trace_summary", False):
            print()
            print(format_span_tree(tracer))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
