"""Sibling requests travel by graph reference.

The first named request for a ``(model, batch)`` builds and
fingerprints the zoo graph; every later configuration of it carries a
:class:`~repro.service.fingerprint.GraphRef` that the executing engine
resolves to the graph its analysis cache holds, or rebuilds and checks.
These tests pin that down on both tiers: one build for nine siblings,
keys, summaries and digests equal to the graph form's, and a rebuild
that survives cache eviction and shard respawns but never profiles a
different graph under a key.
"""
import os
import random
import signal
import sys
import threading
import time

import pytest

import repro.service.fingerprint as fingerprint_module
import repro.service.server as server_module
from repro.analysis.cache import AnalysisCache
from repro.core.profiler import Profiler
from repro.ir.fingerprint import graph_fingerprint, report_digest
from repro.models import build_model
from repro.obs.metrics import MetricsRegistry
from repro.service import JobFailedError, ProfilingService, make_service
from repro.service.fingerprint import (GraphMismatchError, GraphRef,
                                       ProfileRequest, resolve_request)
from repro.service.shard import ShardHandle, fleet_context
from .conftest import synthetic_report

MODEL = "mobilenetv2-05"
#: each backend on the platform the paper pairs it with
PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330", "ov-sim": "xeon6330"}
SIBLINGS = [(backend, precision) for backend in PLATFORMS
            for precision in ("fp16", "fp32", "int8")]


class BuildCounter:
    """Counts zoo builds in this process and in forked shards: the
    submit path's (``builds``) and the resolver's (``rebuilds``)."""

    def __init__(self, monkeypatch):
        ctx = fleet_context()
        self._builds, self._rebuilds = ctx.Value("i", 0), ctx.Value("i", 0)
        for module, value in ((server_module, self._builds),
                              (fingerprint_module, self._rebuilds)):
            monkeypatch.setattr(module, "build_model",
                                self._counted(module.build_model, value))

    @staticmethod
    def _counted(build, value):
        def counted(*args, **kwargs):
            with value.get_lock():
                value.value += 1
            return build(*args, **kwargs)
        return counted

    @property
    def builds(self):
        return self._builds.value

    @property
    def rebuilds(self):
        return self._rebuilds.value


def direct(backend, precision, batch=1):
    """The store-free reference profile of one configuration."""
    return Profiler(backend, PLATFORMS[backend], precision,
                    analysis_cache=False).profile(
        build_model(MODEL, batch_size=batch))


def submit_graph(service, backend, precision, batch=1):
    """The graph form of :func:`submit`, on a freshly built graph."""
    return service.submit(graph=build_model(MODEL, batch_size=batch),
                          backend=backend, platform=PLATFORMS[backend],
                          precision=precision)


def submit(service, backend, precision, batch=1, **kwargs):
    return service.submit(MODEL, batch_size=batch, backend=backend,
                          platform=PLATFORMS[backend], precision=precision,
                          **kwargs)


@pytest.fixture
def sent(monkeypatch):
    """Every request the fleet hands to a shard, in order."""
    requests = []
    enqueue = ShardHandle.enqueue

    def spy(self, job, **kwargs):
        requests.append(job.request)
        return enqueue(self, job, **kwargs)
    monkeypatch.setattr(ShardHandle, "enqueue", spy)
    return requests


# ----------------------------------------------------------------------
@pytest.mark.parametrize("processes", [1, 2], ids=["threads", "fleet"])
def test_siblings_build_once_and_match_the_graph_form(processes, monkeypatch,
                                                      sent):
    want = {cfg: report_digest(direct(*cfg)) for cfg in SIBLINGS}
    counter = BuildCounter(monkeypatch)
    service = make_service(processes=2) if processes == 2 \
        else make_service(workers=2)
    with service:
        jobs = [submit(service, *cfg) for cfg in SIBLINGS]
        reports = [job.result(timeout=60.0) for job in jobs]
        fleet = getattr(service, "dispatcher", None)
        completed = None if fleet is None else {
            i: h.completed for i, h in fleet.shards.items()}
        assert (counter.builds, counter.rebuilds) == (1, 0)
        by_graph = [submit_graph(service, *cfg) for cfg in SIBLINGS]
    for cfg, job, twin, report in zip(SIBLINGS, jobs, by_graph, reports):
        assert report_digest(report) == want[cfg], cfg
        assert twin.cache_hit and job.key == twin.key, cfg
        assert job.summary == twin.summary, cfg
    assert jobs[0].summary["model"] == "mobilenetv2-0.5"
    if fleet is not None:
        # the first request ships its graph, the siblings a reference,
        # and all nine ran on the shard that holds the graph
        assert sent[0].graph is not None
        assert [r.graph for r in sent[1:]] == [None] * (len(SIBLINGS) - 1)
        owner = fleet.ring.shard_for(sent[0].graph_fingerprint())
        assert completed[owner] == len(SIBLINGS)
        assert sum(completed.values()) == len(SIBLINGS)


def test_fleet_siblings_reach_the_first_requests_pid():
    """A custom runner still receives a graph, and every sibling runs in
    the process the first request ran in."""
    def runner(request):
        return os.getpid(), request.graph.name

    with make_service(processes=2, runner=runner) as service:
        results = [submit(service, *cfg).result(timeout=60.0)
                   for cfg in SIBLINGS]
    assert set(results) == {(results[0][0], "mobilenetv2-0.5")}


def test_concurrent_siblings_keep_their_keys_and_graphs(monkeypatch):
    """Eight clients race the memo on two graphs with a short switch
    interval: every reply comes from the right graph under the right
    key, and each graph is built at most once per client."""
    fps = {batch: graph_fingerprint(build_model(MODEL, batch_size=batch))
           for batch in (1, 2)}
    unstarted = ProfilingService()
    want = {(batch, cfg): submit_graph(unstarted, *cfg, batch=batch).key
            for batch in fps for cfg in SIBLINGS}
    counter = BuildCounter(monkeypatch)
    mix = [(batch, cfg) for batch in fps for cfg in SIBLINGS]
    replies, errors = [], []

    def client(seed):
        try:
            for batch, cfg in random.Random(seed).sample(mix, len(mix)):
                job = submit(service, *cfg, batch=batch)
                replies.append((batch, cfg, job.key,
                                job.result(timeout=30.0).model_name))
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ProfilingService(workers=4, runner=lambda r: synthetic_report(
                graph_fingerprint(r.graph))) as service:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(replies) == 8 * len(mix)
    for batch, cfg, key, graph_fp in replies:
        assert key == want[(batch, cfg)] and graph_fp == fps[batch]
    assert 2 <= counter.builds <= 16 and counter.rebuilds == 0


def test_reference_evicted_from_the_thread_tier_cache_is_rebuilt(
        monkeypatch):
    want = report_digest(direct("trt-sim", "fp32"))
    counter = BuildCounter(monkeypatch)
    # the service's own cache, with one shapes slot
    monkeypatch.setattr(server_module, "AnalysisCache",
                        lambda **kwargs: AnalysisCache(max_entries=1,
                                                       **kwargs))
    with ProfilingService(workers=1) as service:
        submit(service, "trt-sim", "fp16").result(timeout=60.0)
        # another graph takes the only shapes slot
        submit(service, "trt-sim", "fp16", batch=2).result(timeout=60.0)
        sibling = submit(service, "trt-sim", "fp32")
        assert report_digest(sibling.result(timeout=60.0)) == want
    assert (counter.builds, counter.rebuilds) == (2, 1)


def test_reference_survives_a_respawned_shard(monkeypatch, sent):
    want = report_digest(direct("trt-sim", "fp32"))
    counter = BuildCounter(monkeypatch)
    with make_service(processes=2) as service:
        fleet = service.dispatcher
        first = submit(service, "trt-sim", "fp16")
        first.result(timeout=60.0)
        handle = fleet.shards[fleet.ring.shard_for(
            sent[0].graph_fingerprint())]
        old_pid = handle.pid
        os.kill(old_pid, signal.SIGKILL)
        deadline = time.monotonic() + 20.0
        while not (handle.pid != old_pid and handle.is_alive()):
            assert time.monotonic() < deadline, "shard never respawned"
            time.sleep(0.02)
        sibling = submit(service, "trt-sim", "fp32")
        assert report_digest(sibling.result(timeout=60.0)) == want
    assert sent[-1].graph is None
    # the parent's first build, then the respawned shard's rebuild
    assert (counter.builds, counter.rebuilds) == (1, 1)


def test_mismatched_rebuild_raises_and_caches_nothing(monkeypatch,
                                                     fast_backoff):
    with ProfilingService(workers=1) as service:
        submit(service, "trt-sim", "fp16").result(timeout=60.0)
        service.analysis_cache.clear()        # the reference must rebuild
        monkeypatch.setattr(fingerprint_module, "build_model",
                            lambda model, batch_size: build_model(
                                "mobilenetv2-10", batch_size=batch_size))
        sibling = submit(service, "trt-sim", "fp32", max_retries=1)
        with pytest.raises(JobFailedError, match="GraphMismatchError"):
            sibling.result(timeout=60.0)
        assert sibling.attempts == 2          # an ordinary, retried failure
        assert service.cache.get(sibling.key) is None
        assert service.cache.get_failure(sibling.key) is None


def test_resolver_checks_the_rebuilt_fingerprint():
    graph = build_model(MODEL)
    ref = GraphRef(graph_fingerprint(graph), "mobilenetv2-10", 1,
                   graph.name)
    request = ProfileRequest(graph=None, backend="trt-sim", platform="a100",
                             precision="fp16", ref=ref)
    with pytest.raises(GraphMismatchError):
        resolve_request(request)
    cache = AnalysisCache(metrics=MetricsRegistry())
    cache.ensure_shapes(graph)
    assert resolve_request(request, cache).graph is graph
    assert cache.stats()["shapes"] == {"hits": 0, "misses": 1,
                                       "evictions": 0}
