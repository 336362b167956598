"""Fleet dispatcher tests: hash ring, graph routing, dedup, shedding,
crash recovery.

The Dispatcher tests run real shard *processes* (fork context), so the
synthetic runners below are closures inherited by the children — no
pickling needed — and every assertion about calls observed inside a
child has to travel back through the reply, not shared memory.
"""
import os
import time

import pytest

from repro.backends.base import UnsupportedModelError
from repro.service import dispatch
from repro.service.cache import ResultCache
from repro.ir.fingerprint import graph_fingerprint
from repro.models.registry import build_model
from repro.service.dispatch import (Dispatcher, HashRing, ShardBusyError,
                                    WorkerCrashError)
from repro.obs.metrics import MetricsRegistry
from repro.service.fingerprint import ProfileRequest
from repro.service.queue import Job, JobFailedError

pytestmark = pytest.mark.usefixtures("fast_backoff", "fast_supervisor")


class Request:
    """Minimal picklable stand-in for a ProfileRequest."""

    def __init__(self, name="m", sleep=0.0):
        self.name = name
        self.sleep = sleep


def make_dispatcher(runner, processes=2, queue_size=16, cache=None):
    return Dispatcher(
        runner, cache=ResultCache() if cache is None else cache,
        metrics=MetricsRegistry(),
        processes=processes, shard_queue_size=queue_size)


class FakeReport:
    """Report-like result (picklable, cacheable via ``to_dict``)."""

    def __init__(self, name, pid):
        self.name = name
        self.pid = pid

    def to_dict(self):
        return {"name": self.name, "pid": self.pid}


def echo_runner(request):
    """Runs inside the shard child: returns a picklable tagged result."""
    if request.sleep:
        time.sleep(request.sleep)
    return FakeReport(request.name, os.getpid())


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
KEYS = [f"fingerprint-{i:04d}" for i in range(256)]


def test_ring_maps_every_key_to_exactly_one_live_shard():
    ring = HashRing(range(4))
    owners = [ring.shard_for(key) for key in KEYS]
    assert set(owners) <= {0, 1, 2, 3}
    assert len(owners) == len(KEYS)          # total function
    # ownership() partitions: disjoint and jointly exhaustive
    owned = ring.ownership(KEYS)
    assert sorted(k for keys in owned.values() for k in keys) == sorted(KEYS)
    # with 64 virtual nodes the split should be roughly even: no shard
    # owns more than half the keyspace
    assert max(len(keys) for keys in owned.values()) < len(KEYS) // 2


def test_ring_is_deterministic_across_instances():
    a, b = HashRing(range(3)), HashRing(range(3))
    assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]


def test_ring_rebalance_moves_only_the_removed_shards_keys():
    ring = HashRing(range(4))
    before = {key: ring.shard_for(key) for key in KEYS}
    ring.remove(2)
    after = {key: ring.shard_for(key) for key in KEYS}
    for key in KEYS:
        if before[key] != 2:
            assert after[key] == before[key]     # survivors keep keys
        else:
            assert after[key] != 2               # orphans re-homed
    ring.add(2)                                  # and the move reverses
    assert {key: ring.shard_for(key) for key in KEYS} == before


def test_ring_rejects_degenerate_configs():
    with pytest.raises(ValueError):
        HashRing([])
    ring = HashRing([0])
    with pytest.raises(ValueError):
        ring.remove(0)                           # never empty the ring
    with pytest.raises(KeyError):
        ring.remove(7)
    with pytest.raises(ValueError):
        ring.add(0)


# ----------------------------------------------------------------------
# dispatch round trips
# ----------------------------------------------------------------------
def test_dispatch_round_trip_across_processes():
    fleet = make_dispatcher(echo_runner, processes=2)
    fleet.start()
    try:
        jobs = [fleet.submit(Job(f"j{i}", f"key-{i}", Request(f"m{i}")))
                for i in range(8)]
        results = [job.result(timeout=10.0) for job in jobs]
        assert [r.name for r in results] == [f"m{i}" for i in range(8)]
        # work actually left this process
        assert all(r.pid != os.getpid() for r in results)
        # keys spread over both shard processes (the ring owns routing)
        owned = fleet.ring.ownership([f"key-{i}" for i in range(8)])
        pids = {r.pid for r in results}
        assert len(pids) == sum(1 for keys in owned.values() if keys)
    finally:
        fleet.stop()


def test_same_key_sticks_to_one_shard_and_recomputes_after_eviction():
    cache = ResultCache(max_entries=1)
    fleet = make_dispatcher(echo_runner, processes=2, cache=cache)
    fleet.start()
    try:
        first = fleet.submit(Job("j1", "sticky", Request("a")))
        first_pid = first.result(timeout=10.0).pid
        fleet.submit(Job("j2", "other", Request("b"))).result(timeout=10.0)
        assert "sticky" not in cache and cache.stats().evictions == 1
        # the parent's cache is the only result cache: the evicted key
        # runs again, on the shard that owns it
        owner = fleet.shards[fleet.ring.shard_for("sticky")]
        done = owner.completed
        second = fleet.submit(Job("j3", "sticky", Request("a")))
        assert second.result(timeout=10.0).pid == first_pid == owner.pid
        assert not second.cache_hit
        assert owner.completed == done + 1
    finally:
        fleet.stop()


def graph_echo_runner(request):
    """Tags the reply with the request's configuration and the pid."""
    return FakeReport(f"{request.backend}/{request.precision}", os.getpid())


def test_configurations_of_one_graph_share_a_shard():
    graph = build_model("mobilenetv2-05")
    requests = [ProfileRequest(graph=graph, backend=backend,
                               platform="a100", precision=precision)
                for backend in ("trt-sim", "ort-sim", "ov-sim")
                for precision in ("fp16", "fp32", "int8")]
    fleet = make_dispatcher(graph_echo_runner, processes=2)
    # by request key these siblings would spread over both shards
    assert len({fleet.ring.shard_for(r.fingerprint())
                for r in requests}) == 2
    fleet.start()
    try:
        owner = fleet.shards[fleet.ring.shard_for(graph_fingerprint(graph))]
        jobs = [fleet.submit(Job(f"j{i}", r.fingerprint(), r))
                for i, r in enumerate(requests)]
        results = [job.result(timeout=10.0) for job in jobs]
        assert {r.pid for r in results} == {owner.pid}
        assert sorted(r.name for r in results) == sorted(
            f"{r.backend}/{r.precision}" for r in requests)
    finally:
        fleet.stop()


def test_graphless_request_routes_by_job_key():
    fleet = make_dispatcher(echo_runner, processes=2)
    keys = [f"key-{i}" for i in range(8)]
    assert len({fleet.ring.shard_for(key) for key in keys}) == 2
    fleet.start()
    try:
        for key in keys:
            job = Job(f"j-{key}", key, Request(key))
            assert fleet.shard_for(job) == fleet.ring.shard_for(key)
            pid = fleet.submit(job).result(timeout=10.0).pid
            assert pid == fleet.shards[fleet.ring.shard_for(key)].pid
    finally:
        fleet.stop()


def test_single_flight_dedup_across_process_boundary():
    fleet = make_dispatcher(echo_runner, processes=2)
    fleet.start()
    try:
        leader = fleet.submit(Job("j1", "dup", Request("slow", sleep=0.4)))
        followers = [fleet.submit(Job(f"j{i}", "dup", Request("slow")))
                     for i in range(2, 6)]
        assert all(f is leader for f in followers)
        assert leader.result(timeout=10.0).name == "slow"
        assert leader.dedup_count == 4
        assert fleet.metrics.counter("jobs.deduplicated").value == 4
        assert fleet.metrics.counter("jobs.submitted").value == 1
    finally:
        fleet.stop()


def test_full_shard_sheds_load_with_retry_after():
    fleet = make_dispatcher(echo_runner, processes=1, queue_size=2)
    fleet.start()
    try:
        blockers = [
            fleet.submit(Job(f"j{i}", f"k{i}", Request("b", sleep=0.5)))
            for i in range(2)]
        with pytest.raises(ShardBusyError) as excinfo:
            fleet.submit(Job("j-over", "k-over", Request("x")))
        assert excinfo.value.retry_after > 0
        assert fleet.metrics.counter("jobs.shed").value == 1
        # a shed submission leaves no stale single-flight entry
        assert fleet.inflight_count == 2
        for job in blockers:
            job.result(timeout=10.0)
        # once the backlog drains the same key is accepted
        assert fleet.submit(Job("j-again", "k-over", Request("x"))) \
            .result(timeout=10.0).name == "x"
    finally:
        fleet.stop()


def test_fatal_error_crosses_pipe_and_is_negatively_cached():
    def runner(request):
        raise UnsupportedModelError(f"no kernel for {request.name}")

    fleet = make_dispatcher(runner, processes=1)
    fleet.start()
    try:
        first = fleet.submit(Job("j1", "bad", Request("BadOp")))
        with pytest.raises(JobFailedError, match="UnsupportedModelError"):
            first.result(timeout=10.0)
        # identical request short-circuits in the parent: no dispatch
        second = fleet.submit(Job("j2", "bad", Request("BadOp")))
        assert second.cache_hit
        assert second.error.startswith("UnsupportedModelError")
        assert fleet.metrics.counter("jobs.negative_hits").value == 1
    finally:
        fleet.stop()


def test_transient_error_retries_then_fails():
    def runner(request):
        raise RuntimeError("flaky backend")

    fleet = make_dispatcher(runner, processes=1)
    fleet.start()
    try:
        job = fleet.submit(Job("j1", "flaky", Request("m"),
                               max_retries=2))
        with pytest.raises(JobFailedError, match="flaky backend"):
            job.result(timeout=10.0)
        assert job.attempts == 3                 # 1 + max_retries
        assert fleet.metrics.counter("jobs.retries").value == 2
    finally:
        fleet.stop()


# ----------------------------------------------------------------------
# supervision: crash recovery, drain, timeout-kill
# ----------------------------------------------------------------------
def crash_or_echo(request):
    if request.name == "crash":
        os._exit(13)                             # simulate a hard death
    return echo_runner(request)


def test_crashed_shard_respawns_and_drains_waiting_jobs(monkeypatch):
    monkeypatch.setattr(dispatch, "SUPERVISOR_POLL_SECONDS", 0.02)
    fleet = make_dispatcher(crash_or_echo, processes=1)
    fleet.start()
    try:
        doomed = fleet.submit(Job("j-crash", "k-crash",
                                  Request("crash", sleep=0.0),
                                  max_retries=0))
        survivors = [
            fleet.submit(Job(f"j{i}", f"k{i}", Request(f"s{i}")))
            for i in range(3)]
        with pytest.raises(JobFailedError, match="WorkerCrashError"):
            doomed.result(timeout=10.0)
        # the waiting jobs were drained onto the respawned process
        assert [job.result(timeout=10.0).name
                for job in survivors] == ["s0", "s1", "s2"]
        assert fleet.metrics.counter("shard.respawns").value >= 1
        assert fleet.metrics.counter("jobs.drained").value >= 1
        # the fleet keeps serving after recovery
        assert fleet.submit(Job("j-post", "k-post", Request("post"))) \
            .result(timeout=10.0).name == "post"
        assert fleet.shards[0].is_alive()
    finally:
        fleet.stop()


def test_crashing_request_cannot_crash_loop_the_shard(monkeypatch):
    monkeypatch.setattr(dispatch, "SUPERVISOR_POLL_SECONDS", 0.02)
    fleet = make_dispatcher(crash_or_echo, processes=1)
    fleet.start()
    try:
        doomed = fleet.submit(Job("j-crash", "k-crash", Request("crash"),
                                  max_retries=1))
        with pytest.raises(JobFailedError, match="WorkerCrashError"):
            doomed.result(timeout=15.0)
        assert doomed.attempts == 2              # budget spent, then stop
        assert fleet.metrics.counter("shard.respawns").value >= 2
    finally:
        fleet.stop()


def test_wedged_attempt_is_killed_at_its_deadline(monkeypatch):
    monkeypatch.setattr(dispatch, "SUPERVISOR_POLL_SECONDS", 0.02)
    fleet = make_dispatcher(echo_runner, processes=1)
    fleet.start()
    try:
        wedged = fleet.submit(Job("j-wedge", "k-wedge",
                                  Request("wedge", sleep=30.0),
                                  timeout_seconds=0.3, max_retries=0))
        started = time.monotonic()
        with pytest.raises(JobFailedError, match="JobTimeoutError"):
            wedged.result(timeout=10.0)
        assert time.monotonic() - started < 8.0  # not the runner's 30s
        # the kill recovered the shard for later work
        assert wait_until(lambda: fleet.shards[0].is_alive())
        assert fleet.submit(Job("j-post", "k-post", Request("post"))) \
            .result(timeout=10.0).name == "post"
    finally:
        fleet.stop()


def test_per_shard_gauges_registered_and_live():
    fleet = make_dispatcher(echo_runner, processes=2)
    fleet.start()
    try:
        fleet.submit(Job("j1", "k1", Request("m"))).result(timeout=10.0)
        snapshot = fleet.metrics.snapshot()
        gauges = snapshot["gauges"]
        for shard_id in (0, 1):
            assert f"shard.{shard_id}.queue.depth" in gauges
            assert f"shard.{shard_id}.utilization" in gauges
        assert gauges["queue.depth"] == 0        # drained
        assert 0.0 <= gauges["shard.utilization"] <= 1.0
    finally:
        fleet.stop()
