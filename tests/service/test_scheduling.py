"""The shared admission and completion policy, pinned on both tiers.

Every test runs once against the thread tier (``WorkerPool``) and once
against the process fleet (``Dispatcher`` over one shard process).  The
policy is written once for both, so a behaviour must hold on each.
"""
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.dispatch import Dispatcher
from repro.service.queue import Job, JobQueue, JobStatus
from repro.service.workers import WorkerPool


class Request:
    """Picklable stand-in for a ProfileRequest: names the result kind."""

    def __init__(self, kind="report", sleep=0.0):
        self.kind = kind
        self.sleep = sleep


class FakeReport:
    """Report-like result (picklable, cacheable via ``to_dict``)."""

    def __init__(self, kind):
        self.kind = kind

    def to_dict(self):
        return {"kind": self.kind}


def runner(request):
    """Runs on a worker thread or inside the shard process."""
    if request.sleep:
        time.sleep(request.sleep)
    if request.kind == "object":
        return object()             # picklable, but has no to_dict
    if request.kind == "none":
        return None
    return FakeReport(request.kind)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture(params=["threads", "fleet"])
def scheduler(request, fast_backoff, fast_supervisor):
    """A started one-worker scheduler of either tier."""
    if request.param == "threads":
        sched = WorkerPool(runner, queue=JobQueue(maxsize=16),
                           cache=ResultCache(), metrics=MetricsRegistry(),
                           num_workers=1)
    else:
        sched = Dispatcher(runner, cache=ResultCache(),
                           metrics=MetricsRegistry(), processes=1)
    sched.start()
    try:
        yield sched
    finally:
        sched.stop()


@pytest.mark.parametrize("kind", ["object", "none"])
def test_uncacheable_result_is_served_and_frees_its_worker(scheduler, kind):
    job = scheduler.submit(Job("j1", "k1", Request(kind)))
    assert job.wait(5.0), f"job stranded {job.status}"
    assert job.status == JobStatus.SUCCEEDED
    assert scheduler.metrics.counter("cache.store_errors").value == 1
    assert scheduler.inflight_count == 0
    # the worker (or shard reader) survived and runs the next job
    nxt = scheduler.submit(Job("j2", "k2", Request("next")))
    assert nxt.result(timeout=5.0).kind == "next"


def test_job_cancelled_while_waiting_releases_its_inflight_entry(scheduler):
    blocker = scheduler.submit(Job("j1", "k1", Request(sleep=0.3)))
    waiting = scheduler.submit(Job("j2", "k2", Request()))
    assert waiting.cancel()
    assert blocker.result(timeout=10.0).kind == "report"
    assert wait_until(
        lambda: scheduler.metrics.counter("jobs.cancelled").value == 1)
    assert scheduler.inflight_count == 0
    # the cancelled fingerprint is free for a fresh submission
    redo = scheduler.submit(Job("j3", "k2", Request()))
    assert redo is not waiting
    assert redo.result(timeout=10.0).kind == "report"
