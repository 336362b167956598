"""Worker-pool tests: single-flight dedup, retries, timeouts, cancel."""
import threading
import time

import pytest

from repro.backends.base import UnsupportedModelError
from repro.service.cache import ResultCache
from repro.obs.metrics import MetricsRegistry
from repro.service.queue import Job, JobFailedError, JobQueue, JobStatus
from repro.service.workers import WorkerPool


class Request:
    """A minimal stand-in for a ProfileRequest in runner-level tests."""

    def __init__(self, name="m"):
        self.name = name


def make_pool(runner, workers=4, backoff=0.001, queue_size=64):
    queue = JobQueue(maxsize=queue_size)
    pool = WorkerPool(runner, queue=queue, cache=ResultCache(),
                      metrics=MetricsRegistry(), num_workers=workers,
                      backoff_seconds=backoff)
    return pool


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# ----------------------------------------------------------------------
def test_single_flight_dedup_16_concurrent_submissions(make_report):
    calls = []
    lock = threading.Lock()

    def runner(request):
        with lock:
            calls.append(request)
        time.sleep(0.1)                  # keep the job in flight
        return make_report(request.name)

    pool = make_pool(runner, workers=8)
    pool.start()
    try:
        results = []
        barrier = threading.Barrier(16)

        def submit():
            barrier.wait()
            job = pool.submit(Job(f"job-{threading.get_ident()}", "same-key",
                                  Request("dup")))
            results.append(job.result(timeout=5.0))

        threads = [threading.Thread(target=submit) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1           # the profiler ran exactly once
        assert len(results) == 16
        assert len({id(r) for r in results}) == 1
        assert pool.metrics.counter("jobs.deduplicated").value == 15
        assert pool.metrics.counter("jobs.submitted").value == 1
    finally:
        pool.stop()


def test_cache_short_circuits_submission(make_report):
    calls = []

    def runner(request):
        calls.append(request)
        return make_report()

    pool = make_pool(runner, workers=1)
    pool.start()
    try:
        first = pool.submit(Job("j1", "k", Request()))
        first.result(timeout=5.0)
        second = pool.submit(Job("j2", "k", Request()))
        assert second.done and second.cache_hit
        assert second.report is first.report
        assert len(calls) == 1
        assert pool.metrics.counter("jobs.cache_hits").value == 1
    finally:
        pool.stop()


def test_retry_with_backoff_then_success(make_report):
    attempts = []

    def runner(request):
        attempts.append(time.monotonic())
        if len(attempts) < 3:
            raise ConnectionError("transient")
        return make_report()

    pool = make_pool(runner, workers=1, backoff=0.02)
    pool.start()
    try:
        job = pool.submit(Job("j1", "k", Request(), max_retries=3))
        report = job.result(timeout=5.0)
        assert report is not None
        assert job.attempts == 3
        assert pool.metrics.counter("jobs.retries").value == 2
        # exponential backoff: second gap (0.04s) > first gap (0.02s)
        gap1, gap2 = attempts[1] - attempts[0], attempts[2] - attempts[1]
        assert gap2 > gap1 >= 0.02
    finally:
        pool.stop()


def test_retry_exhaustion_fails_job_without_crashing(make_report):
    def runner(request):
        if request.name == "bad":
            raise RuntimeError("injected worker failure")
        return make_report(request.name)

    pool = make_pool(runner, workers=1)
    pool.start()
    try:
        bad = pool.submit(Job("j1", "bad-key", Request("bad"),
                              max_retries=2))
        with pytest.raises(JobFailedError, match="injected worker failure"):
            bad.result(timeout=5.0)
        assert bad.status == JobStatus.FAILED
        assert bad.attempts == 3         # initial + 2 retries
        assert pool.metrics.counter("jobs.failed").value == 1
        # the pool survives and serves the next request
        good = pool.submit(Job("j2", "good-key", Request("good")))
        assert good.result(timeout=5.0).model_name == "good"
    finally:
        pool.stop()


def test_fatal_error_is_not_retried():
    def runner(request):
        raise UnsupportedModelError("npu rejects this model")

    pool = make_pool(runner, workers=1)
    pool.start()
    try:
        job = pool.submit(Job("j1", "k", Request()))
        with pytest.raises(JobFailedError, match="npu rejects"):
            job.result(timeout=5.0)
        assert job.attempts == 1
        assert pool.metrics.counter("jobs.retries").value == 0
    finally:
        pool.stop()


def test_timeout_counts_against_retry_budget(make_report):
    def runner(request):
        time.sleep(0.5)
        return make_report()

    pool = make_pool(runner, workers=1, backoff=0.001)
    pool.start()
    try:
        job = pool.submit(Job("j1", "k", Request(),
                              timeout_seconds=0.05, max_retries=1))
        with pytest.raises(JobFailedError, match="exceeded 0.05s"):
            job.result(timeout=5.0)
        assert job.attempts == 2
    finally:
        pool.stop()


def test_cancelled_job_is_skipped_not_run(make_report):
    calls = []

    def runner(request):
        calls.append(request)
        return make_report()

    pool = make_pool(runner, workers=1)   # not started yet
    job = pool.submit(Job("j1", "k", Request()))
    assert job.cancel()
    pool.start()
    try:
        assert wait_until(
            lambda: pool.metrics.counter("jobs.cancelled").value == 1)
        assert calls == []
        assert pool.inflight_count == 0
        # the key is free again for a fresh submission
        redo = pool.submit(Job("j2", "k", Request()))
        assert redo.result(timeout=5.0) is not None
    finally:
        pool.stop()


def test_cancelled_jobs_compacted_from_a_full_queue_are_released(make_report):
    """Compaction drops cancelled entries that no worker will pop; the
    pool must still release their in-flight entries and count them."""
    pool = make_pool(lambda request: make_report(), queue_size=2)
    first = pool.submit(Job("j1", "k1", Request()))
    second = pool.submit(Job("j2", "k2", Request()))
    assert first.cancel() and second.cancel()
    pool.submit(Job("j3", "k3", Request()))    # full: compacts both
    assert pool.metrics.counter("jobs.cancelled").value == 2
    assert pool.inflight_count == 1


# ----------------------------------------------------------------------
def test_analysis_cache_counters_cover_every_tier_once():
    """A thread-tier service exports each analysis-cache tier's hits,
    misses and evictions exactly once, as counters the cache registers;
    the pool mirrors none of them as gauges."""
    from repro.analysis.cache import AnalysisCache
    from repro.service import ProfilingService

    def exported(text):
        types, values = {}, {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                name, kind = line.split()[2:]
                types.setdefault(name, []).append(kind)
            elif line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return types, values

    with ProfilingService(workers=1) as service:
        _, before = exported(service.metrics_text())
        service.profile("mobilenetv2-05", batch_size=1)
        types, after = exported(service.metrics_text())
    tiers = ("shapes", "arep", "mapped", "layer", "structure")
    assert AnalysisCache.TIERS == tiers
    expected = set()
    for tier in tiers:
        for kind in ("hits", "misses", "evictions"):
            base = f"analysis_cache_{tier}_{kind}"
            assert types[f"{base}_total"] == ["counter"]
            assert base not in types
            expected.add(f"{base}_total")
    assert {n for n in types if n.startswith("analysis_cache_")} == expected
    # the job looked up every tier, each of which a profile touches
    for tier in tiers:
        lookups = [f"analysis_cache_{tier}_{kind}_total"
                   for kind in ("hits", "misses")]
        assert sum(after[n] for n in lookups) > \
            sum(before[n] for n in lookups), tier
    assert after["analysis_cache_mapped_misses_total"] == \
        before["analysis_cache_mapped_misses_total"] + 1


# ----------------------------------------------------------------------
# regression: stop() must interrupt a retry backoff immediately
# ----------------------------------------------------------------------
def test_stop_during_backoff_returns_promptly():
    """``stop()`` used to block for the whole exponential-backoff chain
    because the worker slept with ``time.sleep``; the stop event now
    wakes it mid-backoff and the job fails with its last error."""
    started = threading.Event()

    def runner(request):
        started.set()
        raise ConnectionError("always transient")

    # 5s base backoff: an uninterruptible chain would hold stop() for
    # 5 + 10 + 20 seconds
    pool = make_pool(runner, workers=1, backoff=5.0)
    pool.start()
    job = pool.submit(Job("j1", "k", Request(), max_retries=3))
    assert started.wait(5.0)
    time.sleep(0.05)                     # let the worker enter backoff
    t0 = time.monotonic()
    pool.stop()
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, f"stop() blocked {elapsed:.1f}s on backoff"
    assert job.done and job.status == JobStatus.FAILED
    assert "always transient" in job.error


# ----------------------------------------------------------------------
# regression: fatal failures are negative-cached with a TTL
# ----------------------------------------------------------------------
def test_fatal_failure_short_circuits_identical_requests():
    calls = []

    def runner(request):
        calls.append(request)
        raise UnsupportedModelError("npu rejects this model")

    pool = make_pool(runner, workers=1)
    pool.start()
    try:
        first = pool.submit(Job("j1", "k", Request()))
        with pytest.raises(JobFailedError, match="npu rejects"):
            first.result(timeout=5.0)
        assert len(calls) == 1
        # the identical request never reaches the queue or the runner
        second = pool.submit(Job("j2", "k", Request()))
        assert second.done and second.status == JobStatus.FAILED
        assert "npu rejects this model" in second.error
        # ... and carries the original error type, not a generic one
        assert second.error.startswith("UnsupportedModelError")
        assert len(calls) == 1
        assert pool.metrics.counter("jobs.negative_hits").value == 1
    finally:
        pool.stop()


def test_negative_cache_expires_and_reruns():
    calls = []

    def runner(request):
        calls.append(request)
        raise UnsupportedModelError("still unsupported")

    queue = JobQueue(maxsize=16)
    pool = WorkerPool(runner, queue=queue,
                      cache=ResultCache(negative_ttl=0.1),
                      metrics=MetricsRegistry(), num_workers=1,
                      backoff_seconds=0.001)
    pool.start()
    try:
        with pytest.raises(JobFailedError):
            pool.submit(Job("j1", "k", Request())).result(timeout=5.0)
        assert len(calls) == 1
        time.sleep(0.15)                 # let the negative entry expire
        with pytest.raises(JobFailedError):
            pool.submit(Job("j2", "k", Request())).result(timeout=5.0)
        assert len(calls) == 2           # the pipeline ran again
        assert pool.metrics.counter("jobs.negative_hits").value == 0
    finally:
        pool.stop()


def test_transient_failures_are_not_negative_cached(make_report):
    calls = []

    def runner(request):
        calls.append(request)
        if len(calls) == 1:
            raise ConnectionError("transient")
        return make_report()

    pool = make_pool(runner, workers=1, backoff=0.001)
    pool.start()
    try:
        job = pool.submit(Job("j1", "k", Request(), max_retries=1))
        assert job.result(timeout=5.0) is not None
        redo = pool.submit(Job("j2", "k", Request()))
        assert redo.done and redo.cache_hit  # positive hit, not negative
        assert redo.status == JobStatus.SUCCEEDED
    finally:
        pool.stop()
