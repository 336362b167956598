"""Batch-size sweeps: throughput/latency curves over deployment batch.

The paper reads its Table 5 batch column ("the batch size reached
maximum throughput for both models") off such a sweep; this utility
makes that workflow a one-liner and finds the throughput-saturating
batch programmatically.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..backends import Backend
from ..hardware.specs import HardwareSpec
from ..ir.graph import Graph
from ..ir.tensor import DataType
from ..obs.trace import get_tracer
from .profiler import Profiler
from .report import ProfileReport

__all__ = ["SweepPoint", "BatchSweep", "sweep_batch_sizes"]

DEFAULT_BATCHES: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point's end-to-end numbers."""

    batch_size: int
    latency_seconds: float
    throughput_per_second: float
    achieved_flops: float
    achieved_bandwidth: float
    arithmetic_intensity: float
    #: deployment precision of this point ("" for legacy constructors)
    precision: str = ""


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass
class BatchSweep:
    """The full sweep plus convenience analytics."""

    model_name: str
    platform_name: str
    points: List[SweepPoint]
    #: per-tier analysis-cache delta over this sweep:
    #: ``{tier: {"hits", "misses", "evictions", "hit_rate"}}`` — None
    #: when the profiler ran uncached
    cache_stats: Optional[Dict[str, Dict[str, Any]]] = None

    def best_throughput(self) -> SweepPoint:
        return max(self.points, key=lambda p: p.throughput_per_second)

    def best_latency(self) -> SweepPoint:
        return min(self.points, key=lambda p: p.latency_seconds)

    def saturation_batch(self, tolerance: float = 0.05) -> int:
        """Smallest batch within ``tolerance`` of peak throughput —
        bigger batches only add latency."""
        peak = self.best_throughput().throughput_per_second
        for p in self.points:
            if p.throughput_per_second >= (1.0 - tolerance) * peak:
                return p.batch_size
        return self.points[-1].batch_size

    def speedup_over(self, other: "BatchSweep") -> List[float]:
        """Per-batch latency ratio vs another sweep (Table 5's Speedup
        column); sweeps must share batch sizes."""
        mine = {p.batch_size: p for p in self.points}
        theirs = {p.batch_size: p for p in other.points}
        shared = sorted(set(mine) & set(theirs))
        if not shared:
            raise ValueError("sweeps share no batch sizes")
        return [theirs[b].latency_seconds / mine[b].latency_seconds
                for b in shared]


def _cache_delta(before: Dict[str, Dict[str, int]],
                 after: Dict[str, Dict[str, int]]
                 ) -> Dict[str, Dict[str, Any]]:
    """Per-tier stats accumulated between two ``AnalysisCache.stats()``
    snapshots, with the hit *rate* each tier achieved in the window."""
    out: Dict[str, Dict[str, Any]] = {}
    for tier, stats in after.items():
        prior = before.get(tier, {})
        hits = stats["hits"] - prior.get("hits", 0)
        misses = stats["misses"] - prior.get("misses", 0)
        out[tier] = {
            "hits": hits,
            "misses": misses,
            "evictions": stats.get("evictions", 0)
            - prior.get("evictions", 0),
            "hit_rate": _rate(hits, misses),
        }
    return out


def sweep_batch_sizes(
    build: Callable[[int], Graph],
    backend: Union[Backend, str] = "trt-sim",
    spec: Union[HardwareSpec, str] = "a100",
    precision: Union[DataType, str] = DataType.FLOAT16,
    batch_sizes: Sequence[int] = DEFAULT_BATCHES,
    jobs: int = 1,
    precisions: Optional[Sequence[Union[DataType, str]]] = None,
    analysis_cache=True,
) -> BatchSweep:
    """Profile ``build(batch)`` across batch sizes (and precisions).

    ``build`` is a callable like ``lambda bs: build_model("resnet50",
    batch_size=bs)``; it runs once per batch size, and every precision's
    point at that batch profiles the same graph (a full PRoof run each).

    ``precisions`` sweeps several deployment precisions in one call
    (overriding ``precision``); points cover the full precision × batch
    product.  All points share one analysis cache, so they reuse each
    other's whole-graph entries *and* — through the layer store — each
    other's per-layer cost/latency records: after the first point pays
    for compile + mapping, sibling precisions assemble their entries
    from the shared structure, which is what makes a five-precision
    sweep cost about one cold point.  The per-tier accounting for this
    run lands in :attr:`BatchSweep.cache_stats`.

    ``jobs > 1`` profiles sweep points on a thread pool.  Each point is
    one profile call over its batch's shared graph (profiling only
    fills the graph's own caches, idempotently) and the profiler's
    analysis cache is already thread-safe, so points parallelize
    cleanly; results come back in input order regardless of completion
    order.  Each point runs under a ``sweep.point`` span parented to
    the sweep's root span so traces stay hierarchical across worker
    threads.
    """
    if not batch_sizes:
        raise ValueError("need at least one batch size")
    for bs in batch_sizes:
        if bs <= 0:
            raise ValueError(f"batch sizes must be positive, got {bs}")
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    prec_list = list(precisions) if precisions else [precision]
    profilers = [Profiler(backend, spec, p, analysis_cache=analysis_cache)
                 for p in prec_list]
    cache = profilers[0].analysis_cache
    stats_before = cache.stats() if cache is not None else None
    tracer = get_tracer()
    tasks = [(profiler, bs) for profiler in profilers for bs in batch_sizes]
    graphs: Dict[int, Graph] = {}
    build_lock = threading.Lock()

    def graph_for(bs: int) -> Graph:
        # built by the first point that needs it, inside its span
        with build_lock:
            if bs not in graphs:
                graphs[bs] = build(bs)
            return graphs[bs]

    with tracer.span("sweep", points=len(tasks), jobs=jobs) as root:
        # cross-thread spans need an explicit parent: the worker thread
        # has no ambient span stack (root may be a no-op span when
        # tracing is disabled — then it carries no span_id to parent to)
        parent = root if hasattr(root, "span_id") else None

        def point(task):
            profiler, bs = task
            with tracer.span("sweep.point", parent=parent, batch=bs,
                             precision=profiler.precision.value):
                report: ProfileReport = profiler.profile(graph_for(bs))
                e = report.end_to_end
                return SweepPoint(
                    batch_size=bs,
                    latency_seconds=e.latency_seconds,
                    throughput_per_second=e.throughput_per_second,
                    achieved_flops=e.achieved_flops,
                    achieved_bandwidth=e.achieved_bandwidth,
                    arithmetic_intensity=e.arithmetic_intensity,
                    precision=profiler.precision.value,
                ), report.model_name

        if jobs == 1:
            results = [point(t) for t in tasks]
        else:
            with ThreadPoolExecutor(
                    max_workers=min(jobs, len(tasks)),
                    thread_name_prefix="proof-sweep") as ex:
                # executor.map preserves input order
                results = list(ex.map(point, tasks))
    points = [p for p, _ in results]
    name = results[-1][1] if results else ""
    cache_stats = None
    if cache is not None:
        cache_stats = _cache_delta(stats_before, cache.stats())
    return BatchSweep(model_name=name,
                      platform_name=profilers[0].spec.name,
                      points=points,
                      cache_stats=cache_stats)
