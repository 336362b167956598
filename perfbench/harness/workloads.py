"""The four workloads: set-up, the measured loop and the output checks.

A workload is built from its seed.  ``setup(tracer)`` brings it to the
point where the first timed operation can run, ``run(seconds, tracer)``
measures and returns a :class:`RunResult`, ``close()`` releases what
set-up started.  ``tracer`` is None in the untraced run.  In the traced
run the calls this file makes into each layer, and the cross-layer
calls listed in :data:`_WRAPPED`, are wrapped in spans from this file;
the program itself is not changed.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

import repro.analysis.cache as analysis_cache_module
import repro.service.fingerprint as service_fingerprint_module
import repro.service.server as service_server_module
from repro.analysis.cache import AnalysisCache
from repro.check.fuzz import O2_ATOL, O2_RTOL, _tolerance_equal, make_feeds
from repro.core.profiler import Profiler
from repro.ir import Executor, compile_plan, infer_shapes, report_digest
from repro.models.registry import build_model, cnn_models
from repro.obs.trace import NoopTracer, use_tracer
from repro.service import (JobStatus, QueueFullError, ShardBusyError,
                           make_service)

from . import measure, schedule
from .schedule import BACKENDS, Key

_NOOP = NoopTracer()


def _or_noop(tracer):
    # not ``tracer or _NOOP``: an empty Tracer has len() 0, so is falsy
    return tracer if tracer is not None else _NOOP


#: p99 limit of a ladder rung, ms; a failed request misses it
LATENCY_LIMIT_MS = 500.0
#: longest wait for the backlog after the last arrival, seconds
DRAIN_SECONDS = 60.0
#: the fleet's pending limit per shard, the thread tier's queue size:
#: the top rung's backlog (up to about 100 on a 2-CPU host) is queued,
#: where the default of 16 would shed it
SHARD_QUEUE_SIZE = 256

#: profiler stage spans (``Profiler.profile``'s own names, plus the
#: backends' ``time_layers``/``map_layers`` nested in them) and the spans
#: this file adds, keyed to the per-layer metric each one feeds.  Zoo
#: builders fill ``value_info`` while building, so the standalone shape
#: inference pass only runs where plan-exec calls it.
STAGE_METRICS = {
    "models.build": "models.build_ms",
    "ir.shape_inference": "ir.shape_inference_ms",
    "ir.fingerprint": "ir.fingerprint_ms",
    "compile": "backends.compile_ms",
    "time_layers": "backends.compile_ms",
    "mapping": "backends.mapping_ms",
    "map_layers": "backends.mapping_ms",
    "arep": "analysis.arep_ms",
    "oar": "analysis.oar_ms",
    "assemble": "analysis.assemble_ms",
    "layer_profiles": "core.layer_profiles_ms",
    "roofline": "core.roofline_ms",
}
CACHE_TIERS = ("shapes", "arep", "mapped", "layer", "structure")


class SetupError(RuntimeError):
    """Set-up could not bring the workload to its first operation."""


@dataclass
class RunResult:
    attempted: int = 0
    wrong: int = 0
    refused: int = 0
    errors: int = 0
    timed_out: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    #: seconds the throughput is counted over
    window_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    goodput_rps: Optional[float] = None
    #: open loop: how late each request left the generator, ms
    late_ms: List[float] = field(default_factory=list)
    #: per-layer metrics (traced run only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: facts for the result file
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.wrong + self.refused + self.errors + self.timed_out

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def correct(self) -> bool:
        """No wrong output, and no operation that raised or timed out.
        Refusals (429/503) are load shedding, not a fault: they count in
        ``failed`` only."""
        return self.wrong == 0 and self.errors == 0 and self.timed_out == 0

    def error(self, what: str) -> None:
        self.errors += 1
        self.detail.setdefault("errors", []).append(what)


# ----------------------------------------------------------------------
# tracing helpers
# ----------------------------------------------------------------------
#: cross-layer calls the program makes internally: (module, attribute,
#: span name).  Wrapping the module attribute reaches every caller that
#: looks the function up through that module.
_WRAPPED = (
    (service_server_module, "build_model", "models.build"),
    (service_server_module, "infer_shapes", "ir.shape_inference"),
    (analysis_cache_module, "infer_shapes", "ir.shape_inference"),
    (analysis_cache_module, "graph_fingerprint", "ir.fingerprint"),
    (service_fingerprint_module, "graph_fingerprint", "ir.fingerprint"),
)


def _wrap(tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
            if name == "models.build":
                span.set("nodes", len(out.nodes))
            return out
    return traced


@contextlib.contextmanager
def instrumented(tracer):
    """Install ``tracer`` globally and wrap the calls in :data:`_WRAPPED`;
    everything is restored on exit."""
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in _WRAPPED]
    for (module, attr, fn), (_, _, name) in zip(saved, _WRAPPED):
        setattr(module, attr, _wrap(tracer, name, fn))
    try:
        with use_tracer(tracer):
            yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _build(tracer, model: str, **kwargs):
    with _or_noop(tracer).span("models.build", model=model) as span:
        graph = build_model(model, **kwargs)
        span.set("nodes", len(graph.nodes))
    return graph


class _Tally:
    """Per-layer sums over the operations of a traced run."""

    def __init__(self) -> None:
        self.ops = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.backend_layers: List[int] = []
        self.nodes: List[int] = []

    def add(self, spans, ops: int = 1) -> Dict[str, float]:
        own = measure.self_times(spans)
        for name, seconds in own.items():
            self.self_s[name] += seconds
        for span in spans:
            if span.name == "mapping":
                self.backend_layers.append(
                    span.attributes.get("backend_layers", 0))
            elif span.name == "models.build":
                self.nodes.append(span.attributes.get("nodes", 0))
        self.ops += ops
        return own

    def per_op_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3 / max(self.ops, 1)

    def layers(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for stage, metric in STAGE_METRICS.items():
            out[metric] += self.per_op_ms(stage)
        out["ir.nodes"] = measure.mean(self.nodes)
        out["backends.layers"] = measure.mean(self.backend_layers)
        return dict(out)

    def stage_ms(self) -> Dict[str, float]:
        """Mean self ms per operation under each span name — the
        profiler's own stage names included, for comparison with its
        ``stage_seconds`` and the service's stage histograms."""
        return {name: self.per_op_ms(name) for name in sorted(self.self_s)}


def _cache_rates(stats: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    out = {}
    for tier in CACHE_TIERS:
        s = stats.get(tier, {})
        lookups = s.get("hits", 0) + s.get("misses", 0)
        out[f"analysis.cache.{tier}.hit_rate"] = \
            s.get("hits", 0) / lookups if lookups else 0.0
    return out


def outputs_match(want: Dict[str, np.ndarray],
                  have: Dict[str, np.ndarray]) -> bool:
    """Every output within O2's ``repro.check`` tolerance."""
    return all(name in have and _tolerance_equal(ref, have[name],
                                                 O2_RTOL, O2_ATOL)
               for name, ref in want.items())


def _plan_graph(model: str, tracer=None):
    graph = _build(tracer, model, batch_size=1,
                   image_size=schedule.PLAN_IMAGE_SIZE)
    with _or_noop(tracer).span("ir.shape_inference"):
        infer_shapes(graph)
    return graph


def screen_feed_seeds(model: str):
    """Split :data:`schedule.PLAN_FEED_SEEDS` into the feed seeds whose
    O2 and O3 outputs meet O2's tolerance against the executor (and are
    finite), and the rest."""
    graph = _plan_graph(model)
    seed = schedule.PLAN_WEIGHT_SEED
    executor = Executor(graph, seed=seed)
    plans = [compile_plan(graph, seed=seed, optimize=level)
             for level in schedule.PLAN_LEVELS]
    within, outside = [], []
    for feed_seed in schedule.PLAN_FEED_SEEDS:
        feeds = make_feeds(graph, seed=feed_seed)
        with np.errstate(all="ignore"):
            ref = executor.run(feeds)
            ok = all(np.isfinite(v).all() for v in ref.values()) and all(
                outputs_match(ref, plan.run(feeds)) for plan in plans)
        (within if ok else outside).append(feed_seed)
    return within, outside


def nonfinite_counts(feed_seed: int) -> Dict[str, Dict[str, int]]:
    """NaN + Inf values in every zoo CNN's outputs at O0, O2 and O3."""
    counts = {}
    seed = schedule.PLAN_WEIGHT_SEED
    for entry in cnn_models():
        graph = _plan_graph(entry.key)
        feeds = make_feeds(graph, seed=feed_seed)
        per_level = {}
        for level in (0, 2, 3):
            # the overflow these models hit is what is being counted
            with np.errstate(all="ignore"):
                out = compile_plan(graph, seed=seed, optimize=level).run(feeds)
            per_level[f"O{level}"] = int(sum(
                v.size - np.count_nonzero(np.isfinite(v))
                for v in out.values()))
        counts[entry.key] = per_level
    return counts


# ----------------------------------------------------------------------
# profile-cold
# ----------------------------------------------------------------------
class ProfileCold:
    """Closed loop, one client: ``build_model`` + ``Profiler.profile`` on
    a fresh ``AnalysisCache``, what a one-shot ``proof run`` pays."""

    def __init__(self, seed: int, oracle) -> None:
        self.rounds = schedule.profile_rounds(seed)
        self.oracle = oracle

    def setup(self, tracer=None) -> None:
        # each backend's lazily initialised state is paid here, once
        for backend in BACKENDS:
            key = Key(schedule.WARMUP_MODEL, backend, "fp16", 1)
            report, _, _ = self._op(key, None)
            if not self.oracle.verify(key, report_digest(report)):
                raise SetupError(f"warm-up {key} disagrees with the oracle")

    def close(self) -> None:
        pass

    @staticmethod
    def _op(key: Key, tracer):
        graph = _build(tracer, key.model, batch_size=key.batch)
        cache = AnalysisCache()
        profiler = Profiler(key.backend, BACKENDS[key.backend], key.precision,
                            analysis_cache=cache)
        return profiler.profile(graph), graph, cache

    def run(self, seconds: float, tracer=None) -> RunResult:
        res = RunResult()
        tally = _Tally()
        per_model: Dict[str, List[float]] = defaultdict(list)
        profile_s: Dict[str, List[float]] = defaultdict(list)
        mapping_ms: Dict[str, List[float]] = defaultdict(list)
        nodes: Dict[str, int] = {}
        cache_totals: Dict[str, Dict[str, int]] = defaultdict(Counter)
        store_entries: List[int] = []
        unattributed: List[float] = []
        gc.collect()
        start = time.perf_counter()
        # whole rounds only: every run profiles the same size mix
        while time.perf_counter() - start < seconds:
            for key in next(self.rounds):
                res.attempted += 1
                c0, t0 = time.process_time(), time.perf_counter()
                report = None
                try:
                    with _or_noop(tracer).span("bench.op", model=key.model):
                        report, graph, cache = self._op(key, tracer)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    res.error(f"{key}: {type(exc).__name__}: {exc}")
                # a failed operation's time stays in the window
                dt = time.perf_counter() - t0
                res.cpu_s += time.process_time() - c0
                res.window_s += dt
                spans = tracer.spans() if tracer is not None else []
                if tracer is not None:
                    tracer.clear()
                if report is None:
                    continue
                if not self.oracle.verify(key, report_digest(report)):
                    res.wrong += 1
                    continue
                res.latencies_ms.append(dt * 1e3)
                per_model[key.model].append(dt * 1e3)
                nodes[key.model] = len(graph.nodes)
                if tracer is None:
                    continue
                own = tally.add(spans)
                attributed = sum(own.get(stage, 0.0) for stage in STAGE_METRICS)
                unattributed.append(max(0.0, dt - attributed))
                mapping_ms[key.model].append(
                    (own.get("mapping", 0.0) + own.get("map_layers", 0.0)) * 1e3)
                profile_s[key.model] += [s.duration_seconds for s in spans
                                         if s.name == "profile"]
                for tier, s in cache.stats().items():
                    cache_totals[tier].update(s)
                store_entries.append(len(cache.layer_store))
        res.peak_rss_mb = measure.peak_rss_mb()
        res.detail["per_model_p50_ms"] = {
            m: measure.percentile(v, 0.5) for m, v in sorted(per_model.items())}
        res.detail["nodes"] = dict(sorted(nodes.items()))
        if tracer is not None:
            layers = tally.layers()
            layers.update(_cache_rates(cache_totals))
            layers["analysis.layerstore.entries"] = measure.mean(store_entries)
            layers["core.unattributed_frac"] = \
                sum(unattributed) / res.window_s if res.window_s else 0.0
            models = sorted(mapping_ms)
            layers["backends.mapping_slope"] = measure.loglog_slope(
                [nodes[m] for m in models],
                [measure.percentile(mapping_ms[m], 0.5) for m in models])
            for model, seconds_list in profile_s.items():
                layers[f"core.profile.{model}_ms"] = \
                    measure.percentile(seconds_list, 0.5) * 1e3
            res.layers = layers
            res.detail["stage_ms_per_op"] = tally.stage_ms()
            res.detail["mapping_p50_ms"] = {
                m: measure.percentile(mapping_ms[m], 0.5) for m in models}
        return res


# ----------------------------------------------------------------------
# service-threads / service-fleet
# ----------------------------------------------------------------------
class _Sent(NamedTuple):
    job: Any
    due: float
    sent: float
    submitted: float
    error: Optional[str]


class ServiceLadder:
    """Open loop: seeded Poisson arrivals stepping through the rate
    ladder, into the thread tier (``processes=1``) or the fleet."""

    def __init__(self, seed: int, oracle, seconds: float,
                 processes: int) -> None:
        self.requests = schedule.service_schedule(seed, seconds)
        self.rung_seconds = seconds / len(schedule.RUNG_RATES)
        self.oracle = oracle
        self.processes = processes
        self.service = None
        self.fleet = None
        self._child_cpu0 = 0.0
        self._warm_shard_cpu = 0.0

    # -- lifecycle ------------------------------------------------------
    def setup(self, tracer=None) -> None:
        kwargs = {"tracer": tracer} if tracer is not None else {}
        self._child_cpu0 = measure.children_cpu_seconds()
        if self.processes > 1:
            service = make_service(processes=self.processes,
                                   shard_queue_size=SHARD_QUEUE_SIZE, **kwargs)
        else:
            service = make_service(workers=2, **kwargs)
        service.start()
        self.service = service
        self.fleet = getattr(service, "dispatcher", None)
        self._warm(service)
        if self.fleet is not None:
            self._warm_shard_cpu = sum(
                h.cpu_seconds for h in self.fleet.shards.values())

    def _warm(self, service) -> None:
        """Every shard answers once (the thread tier: one request)."""
        waiting = set(self.fleet.shards) if self.fleet else {0}
        for batch in schedule.WARMUP_BATCHES:
            if not waiting:
                return
            key = Key(schedule.WARMUP_MODEL, "trt-sim", "fp16", batch)
            job = self._submit(service, key)
            if not self.oracle.verify(key, report_digest(job.result(60.0))):
                raise SetupError(f"warm-up {key} disagrees with the oracle")
            waiting.discard(
                self.fleet.ring.shard_for(job.key) if self.fleet else 0)
        if waiting:
            raise SetupError(f"shards {sorted(waiting)} never answered")

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    @staticmethod
    def _submit(service, key: Key):
        return service.submit(key.model, batch_size=key.batch,
                              backend=key.backend,
                              platform=BACKENDS[key.backend],
                              precision=key.precision)

    # -- load generator -------------------------------------------------
    def _send(self, service, requests, t0: float, slots: list,
              tracer) -> None:
        for req in requests:
            due = t0 + req.due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            job = error = None
            try:
                with _or_noop(tracer).span("service.submit"):
                    job = self._submit(service, req.key)
            except (QueueFullError, ShardBusyError):
                error = "refused"
            except Exception as exc:  # noqa: BLE001 - counted, reported
                error = f"{type(exc).__name__}: {exc}"
            slots[req.index] = _Sent(job, due, sent, time.monotonic(), error)

    def run(self, seconds: float, tracer=None) -> RunResult:
        service = self.service
        res = RunResult()
        slots: List[Optional[_Sent]] = [None] * len(self.requests)
        fleet = self.fleet
        busy0 = {i: h.busy_seconds for i, h in fleet.shards.items()} \
            if fleet else {}
        done0 = {i: h.completed for i, h in fleet.shards.items()} \
            if fleet else {}
        gc.collect()
        cpu0 = measure.cpu_seconds()
        t0 = time.monotonic() + 0.05
        # at most nproc (2) generator threads
        senders = [threading.Thread(
            target=self._send, name=f"perfbench-sender-{i}",
            args=(service, self.requests[i::2], t0, slots, tracer))
            for i in range(2)]
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join()
        deadline = time.monotonic() + DRAIN_SECONDS
        for slot in slots:
            if slot.job is not None:
                slot.job.wait(max(0.0, deadline - time.monotonic()))
        drained = time.monotonic()
        res.cpu_s = measure.cpu_seconds() - cpu0
        fleet_facts = {}
        if fleet is not None:
            fleet_facts = {
                "busy": {i: h.busy_seconds - busy0[i]
                         for i, h in fleet.shards.items()},
                "completed": {i: h.completed - done0[i]
                              for i, h in fleet.shards.items()},
                "respawns": sum(h.respawns for h in fleet.shards.values()),
                "shard_cpu_model_s": {
                    i: h.cpu_seconds for i, h in fleet.shards.items()},
            }
        spans = tracer.spans() if tracer is not None else []
        counters = service.metrics.snapshot()
        cache_stats = service.cache.stats().to_dict()
        analysis = None if fleet else service.analysis_cache
        self.close()
        if fleet is not None:
            # shard CPU and peak RSS are readable once the shards are reaped
            shards_cpu = (measure.children_cpu_seconds() - self._child_cpu0
                          - self._warm_shard_cpu)
            fleet_facts["cpu_s"] = {"parent": res.cpu_s, "shards": shards_cpu}
            res.cpu_s += shards_cpu
            res.peak_rss_mb = (measure.peak_rss_mb()
                               + measure.peak_rss_mb(children=True))
        else:
            res.peak_rss_mb = measure.peak_rss_mb()

        finished: List[float] = []          # inf: missed (failed)
        digests: Dict[int, str] = {}
        executed: Dict[int, Any] = {}
        submit_ms: List[float] = []
        for req, slot in zip(self.requests, slots):
            res.attempted += 1
            res.late_ms.append((slot.sent - slot.due) * 1e3)
            submit_ms.append((slot.submitted - slot.sent) * 1e3)
            job = slot.job
            if slot.error == "refused":
                res.refused += 1
            elif slot.error is not None:
                res.error(f"{req.key}: {slot.error}")
            elif not job.done:
                job.cancel()
                res.timed_out += 1
            elif job.status != JobStatus.SUCCEEDED:
                res.error(f"{req.key}: {job.error}")
            else:
                if job.started_at is not None:
                    executed[id(job)] = job
                digest = digests.get(id(job.report))
                if digest is None:
                    digest = digests[id(job.report)] = report_digest(job.report)
                if self.oracle.verify(req.key, digest):
                    finished.append(job.finished_at)
                    res.latencies_ms.append((job.finished_at - slot.due) * 1e3)
                    continue
                res.wrong += 1
            finished.append(float("inf"))
        done = [f for f in finished if f != float("inf")]
        res.window_s = (max(done) if done else drained) - t0
        res.goodput_rps, rungs = self._ladder(t0, slots, finished)
        res.detail["rungs"] = rungs
        res.detail["fleet"] = fleet_facts
        if tracer is not None:
            tally = _Tally()
            tally.add(spans, ops=res.attempted)
            res.layers = self._layers(res, tally, counters,
                                      cache_stats, analysis, executed,
                                      submit_ms, fleet_facts)
            res.detail["stage_ms_per_request"] = tally.stage_ms()
        return res

    def _ladder(self, t0: float, slots, finished):
        """Per-rung latency and backlog.  Goodput is the highest rate up
        to which every rung's p99 meets the limit and the backlog stays
        flat: it grows by less than the limit's worth of arrivals."""
        def outstanding(at: float) -> int:
            return sum(1 for s, f in zip(slots, finished)
                       if s.due <= at < f)
        rungs, goodput, passing = [], 0.0, True
        for rung, rate in enumerate(schedule.RUNG_RATES):
            idx = [i for i, r in enumerate(self.requests) if r.rung == rung]
            lat = [(finished[i] - slots[i].due) * 1e3 for i in idx]
            p99 = measure.percentile(lat, 0.99)
            begin = t0 + rung * self.rung_seconds
            start_q = outstanding(begin)
            end_q = outstanding(begin + self.rung_seconds)
            ok = p99 <= LATENCY_LIMIT_MS and \
                end_q <= start_q + max(2.0, rate * LATENCY_LIMIT_MS / 1e3)
            passing = passing and ok
            if passing:
                goodput = rate
            rungs.append({"rate_rps": rate, "requests": len(idx),
                          "p50_ms": measure.percentile(lat, 0.5),
                          "p99_ms": p99, "backlog_start": start_q,
                          "backlog_end": end_q, "ok": ok})
        return goodput, rungs

    def _layers(self, res, tally, snapshot, cache_stats, analysis,
                executed, submit_ms, fleet_facts) -> Dict[str, float]:
        layers = tally.layers()
        counters = snapshot["counters"]
        attempted = max(res.attempted, 1)
        jobs = list(executed.values())
        waits = [j.queue_wait_seconds for j in jobs
                 if j.queue_wait_seconds is not None]
        execs = [j.service_seconds for j in jobs
                 if j.service_seconds is not None]
        layers.update({
            "service.submit_ms": measure.mean(submit_ms),
            "service.queue_wait_ms": measure.mean(waits) * 1e3,
            "service.exec_ms": measure.mean(execs) * 1e3,
            "service.result_cache.hit_rate":
                cache_stats["hits"] / max(cache_stats["hits"]
                                          + cache_stats["misses"], 1),
            "service.dedup_frac":
                counters.get("jobs.deduplicated", 0) / attempted,
            "service.shed_frac": res.refused / attempted,
            "service.retries": counters.get("jobs.retries", 0),
            "service.negative_hits": counters.get("jobs.negative_hits", 0),
            "service.respawns": counters.get("shard.respawns", 0),
        })
        if fleet_facts:
            busy = fleet_facts["busy"]
            done = list(fleet_facts["completed"].values())
            layers["service.shard.busy_frac"] = \
                sum(busy.values()) / (len(busy) * max(res.window_s, 1e-9))
            layers["service.shard.imbalance"] = \
                max(done) / measure.mean(done) if sum(done) else 0.0
            # parent-observed execution minus the shard's own timing
            shard = snapshot["histograms"].get("service.seconds", {})
            layers["service.ipc_ms"] = (measure.mean(execs)
                                        - shard.get("mean", 0.0)) * 1e3
        if analysis is not None:
            layers.update(_cache_rates(analysis.stats()))
            layers["analysis.layerstore.entries"] = len(analysis.layer_store)
        layers["loadgen.late_p99_ms"] = measure.percentile(res.late_ms, 0.99)
        return layers


# ----------------------------------------------------------------------
# plan-exec
# ----------------------------------------------------------------------
class PlanExec:
    """Closed loop, one client: ``ExecutionPlan.run`` at O2 and O3,
    checked against the reference executor."""

    def __init__(self, seed: int, baseline: Dict[str, Any]) -> None:
        self.seed = seed
        self.rounds = schedule.plan_rounds(seed)
        self.feed_seeds = schedule.plan_feed_seeds(
            seed, baseline["within_tolerance_feed_seeds"])
        self.plans: Dict[tuple, Any] = {}
        self.feeds: Dict[str, Dict[str, np.ndarray]] = {}
        self.refs: Dict[str, Dict[str, np.ndarray]] = {}
        self.setup_layers: Dict[str, float] = {}

    def setup(self, tracer=None) -> None:
        t = _or_noop(tracer)
        compile_s, first_s = [], []
        steps = fused = arena = 0
        weight_seed = schedule.PLAN_WEIGHT_SEED
        for model in schedule.PLAN_MODELS:
            graph = _plan_graph(model, tracer)
            feeds = make_feeds(graph, seed=self.feed_seeds[model])
            with t.span("ir.executor", model=model):
                self.refs[model] = Executor(graph, seed=weight_seed).run(feeds)
            self.feeds[model] = feeds
            for level in schedule.PLAN_LEVELS:
                c0 = time.perf_counter()
                with t.span("plan.compile", model=model, level=level):
                    plan = compile_plan(graph, seed=weight_seed,
                                        optimize=level)
                c1 = time.perf_counter()
                with t.span("plan.first_run", model=model, level=level):
                    plan.run(feeds)
                first_s.append(time.perf_counter() - c1)
                compile_s.append(c1 - c0)
                steps += plan.num_steps
                fused += plan.num_fused_steps
                arena += plan.arena_peak_bytes
                self.plans[(model, level)] = plan
        self.setup_layers = {
            "plan.compile_ms": measure.mean(compile_s) * 1e3,
            "plan.first_run_ms": measure.mean(first_s) * 1e3,
            "plan.steps": steps, "plan.fused_steps": fused,
            "plan.arena_peak_bytes": arena}
        if tracer is not None:
            tally = _Tally()
            tally.add(tracer.spans(), ops=len(schedule.PLAN_MODELS))
            tracer.clear()
            self.setup_layers.update(
                {m: v for m, v in tally.layers().items()
                 if m in ("models.build_ms", "ir.shape_inference_ms",
                          "ir.nodes")})

    def close(self) -> None:
        self.plans.clear()

    def run(self, seconds: float, tracer=None) -> RunResult:
        res = RunResult()
        per_pair: Dict[tuple, List[float]] = defaultdict(list)
        t = _or_noop(tracer)
        gc.collect()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for model, level in next(self.rounds):
                res.attempted += 1
                plan = self.plans[(model, level)]
                c0, t0 = time.process_time(), time.perf_counter()
                out = None
                try:
                    with t.span("plan.run", model=model, level=level):
                        out = plan.run(self.feeds[model])
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    res.error(f"{model} O{level}: {type(exc).__name__}: {exc}")
                # a failed operation's time stays in the window
                dt = time.perf_counter() - t0
                res.cpu_s += time.process_time() - c0
                res.window_s += dt
                if out is None:
                    continue
                if not outputs_match(self.refs[model], out):
                    res.wrong += 1
                    continue
                res.latencies_ms.append(dt * 1e3)
                per_pair[(model, level)].append(dt * 1e3)
            if tracer is not None:
                tracer.clear()   # per-run timings come from this loop
        res.peak_rss_mb = measure.peak_rss_mb()
        res.detail["per_plan_p50_ms"] = {
            f"{m}.O{l}": measure.percentile(v, 0.5)
            for (m, l), v in sorted(per_pair.items())}
        if tracer is not None:
            layers = dict(self.setup_layers)
            for (model, level), values in per_pair.items():
                layers[f"plan.run.{model}.O{level}_ms"] = \
                    measure.percentile(values, 0.5)
            counts = nonfinite_counts(self.seed)
            res.detail["feed_seeds"] = self.feed_seeds
            layers["plan.nonfinite_outputs"] = sum(
                n for per_level in counts.values() for n in per_level.values())
            res.detail["nonfinite_outputs"] = counts
            res.layers = layers
        return res
