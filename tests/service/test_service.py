"""End-to-end ``ProfilingService`` tests — the acceptance demo.

Covers: cache hits recorded in stats for repeated requests, bit-identical
results versus a direct ``Profiler.profile`` call, 16-way concurrent
dedup, retry-then-surface failure semantics, backpressure, and
priorities/cancellation through the facade.
"""
import threading
import time

import pytest

from repro.core.profiler import Profiler
from repro.ir.fingerprint import report_digest
from repro.models import build_model
from repro.service import policy
from repro.service import (JobFailedError, JobStatus, ProfilingService,
                           QueueFullError)
from .conftest import synthetic_report


def _drain(service, timeout=5.0):
    """Wait until every queued job has been picked up by a worker."""
    deadline = time.monotonic() + timeout
    while service.queue.depth > 0 and time.monotonic() < deadline:
        time.sleep(0.005)
    assert service.queue.depth == 0


def test_cached_result_is_bit_identical_to_direct_profiler():
    direct = Profiler("trt-sim", "a100", "fp16").profile(
        build_model("mobilenetv2-05", batch_size=2))
    with ProfilingService(workers=2) as service:
        first = service.profile("mobilenetv2-05", batch_size=2)
        second = service.profile("mobilenetv2-05", batch_size=2)
    assert report_digest(first) == report_digest(direct)
    assert report_digest(second) == report_digest(direct)


def test_second_request_served_from_cache_with_hit_in_stats():
    with ProfilingService(workers=2) as service:
        service.profile("mobilenetv2-05")
        job = service.submit("mobilenetv2-05")
        assert job.done and job.cache_hit
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["counters"]["jobs.cache_hits"] == 1
        assert stats["counters"]["jobs.submitted"] == 1


def test_16_concurrent_identical_submissions_profile_once():
    calls = []
    lock = threading.Lock()

    def counting_runner(request):
        with lock:
            calls.append(request)
        time.sleep(0.1)
        return synthetic_report(request.graph.name)

    with ProfilingService(workers=8, runner=counting_runner) as service:
        barrier = threading.Barrier(16)
        digests = []

        def submit():
            barrier.wait()
            report = service.profile("mobilenetv2-05", wait_timeout=10.0)
            with lock:
                digests.append(report_digest(report))

        threads = [threading.Thread(target=submit) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len(set(digests)) == 1 and len(digests) == 16
        counters = service.stats()["counters"]
        assert counters["jobs.submitted"] == 1
        assert counters["jobs.deduplicated"] \
            + counters.get("jobs.cache_hits", 0) == 15
    assert service.queue.depth == 0


def test_injected_failure_retries_then_surfaces_as_failed_job(monkeypatch):
    monkeypatch.setattr(policy, "BACKOFF_SECONDS", 0.01)
    attempts = []

    def flaky_runner(request):
        attempts.append(time.monotonic())
        raise OSError("injected worker failure")

    with ProfilingService(workers=1, runner=flaky_runner) as service:
        job = service.submit("mobilenetv2-05")
        with pytest.raises(JobFailedError, match="injected worker failure"):
            job.result(timeout=10.0)
        assert job.status == JobStatus.FAILED
        assert job.attempts == 3
        assert len(attempts) == 3
        # backoff between attempts, exponentially growing
        assert attempts[2] - attempts[1] > attempts[1] - attempts[0]
        counters = service.stats()["counters"]
        assert counters["jobs.retries"] == 2
        assert counters["jobs.failed"] == 1
        # the service did not crash: it keeps accepting and finishing jobs
        job2 = service.submit("mobilenetv2-05", batch_size=4, max_retries=0)
        with pytest.raises(JobFailedError):
            job2.result(timeout=10.0)
        assert service.stats()["counters"]["jobs.failed"] == 2


def test_queue_full_raises_backpressure_error():
    release = threading.Event()

    def blocking_runner(request):
        release.wait(5.0)
        return synthetic_report(request.graph.name)

    service = ProfilingService(workers=1, queue_size=1,
                               runner=blocking_runner)
    with service:
        first = service.submit("mobilenetv2-05", batch_size=1)
        _drain(service)                  # the worker picks the first job up
        second = service.submit("mobilenetv2-05", batch_size=2)
        with pytest.raises(QueueFullError):
            service.submit("mobilenetv2-05", batch_size=4)
        assert service.stats()["counters"]["jobs.rejected"] == 1
        release.set()
        assert first.result(timeout=10.0) is not None
        assert second.result(timeout=10.0) is not None


def test_priorities_order_queued_work():
    started = []
    release = threading.Event()

    def recording_runner(request):
        if not release.is_set():
            release.wait(5.0)
        started.append(request.graph.name)
        return synthetic_report(request.graph.name)

    with ProfilingService(workers=1, runner=recording_runner) as service:
        blocker = service.submit("shufflenetv2-05")
        _drain(service)                  # the worker occupies itself
        low = service.submit("mobilenetv2-05", priority=0)
        high = service.submit("mobilenetv2-10", priority=10)
        release.set()
        blocker.result(timeout=10.0)
        low.result(timeout=10.0)
        high.result(timeout=10.0)
        assert started.index("mobilenetv2-1") \
            < started.index("mobilenetv2-0.5")


def test_cancel_through_facade():
    release = threading.Event()

    def blocking_runner(request):
        release.wait(5.0)
        return synthetic_report(request.graph.name)

    with ProfilingService(workers=1, runner=blocking_runner) as service:
        blocker = service.submit("mobilenetv2-05", batch_size=8)
        _drain(service)
        victim = service.submit("mobilenetv2-05", batch_size=1)
        assert service.cancel(victim.id)
        assert service.job(victim.id).status == JobStatus.CANCELLED
        assert not service.cancel("job-does-not-exist")
        release.set()
        blocker.result(timeout=10.0)


def test_graph_submission_and_model_are_equivalent():
    graph = build_model("mobilenetv2-05", batch_size=2)
    with ProfilingService(workers=2) as service:
        by_graph = service.profile(graph=graph)
        job = service.submit("mobilenetv2-05", batch_size=2)
        assert job.cache_hit          # same fingerprint, same cache entry
        assert report_digest(job.result(timeout=10.0)) \
            == report_digest(by_graph)


def test_submit_validates_arguments():
    with ProfilingService(workers=1) as service:
        with pytest.raises(ValueError, match="exactly one"):
            service.submit()
        with pytest.raises(ValueError, match="exactly one"):
            service.submit("resnet50", graph=build_model("mobilenetv2-05"))
        with pytest.raises(KeyError, match="unknown model"):
            service.submit("alexnet")
        with pytest.raises(KeyError, match="unknown backend"):
            service.submit("resnet50", backend="tensorrt11")
        with pytest.raises(ValueError, match="metric source"):
            service.submit("resnet50", metric_source="guessed")
