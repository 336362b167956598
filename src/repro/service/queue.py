"""Jobs and the bounded priority queue feeding the worker pool.

A :class:`Job` is one profiling request's lifecycle: ``pending`` in the
queue, ``running`` on a worker, then exactly one of ``succeeded`` /
``failed`` / ``cancelled``.  Completion is a :class:`threading.Event`,
so any number of callers — single-flight followers included — can block
on the same job.

The :class:`JobQueue` is a bounded max-priority heap: higher
``priority`` dequeues first, FIFO within a priority level.  ``put``
raises :class:`QueueFullError` instead of blocking — the service
surfaces that as backpressure (HTTP 503) rather than letting producers
pile up behind a slow profiler.
"""
from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..obs.trace import get_tracer

__all__ = ["Job", "JobStatus", "JobQueue", "QueueFullError",
           "JobFailedError", "JobCancelledError", "JobTimeoutError"]


class JobStatus:
    """Lifecycle states of a profiling job."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


class QueueFullError(RuntimeError):
    """The bounded job queue rejected a submission (backpressure)."""


class JobFailedError(RuntimeError):
    """Raised by :meth:`Job.result` when the job exhausted its retries."""


class JobCancelledError(RuntimeError):
    """Raised by :meth:`Job.result` for a cancelled job."""


class JobTimeoutError(RuntimeError):
    """One profiling attempt exceeded the job's timeout (retryable)."""


class Job:
    """One submitted profiling request."""

    def __init__(self, job_id: str, key: str, request: Any,
                 priority: int = 0, timeout_seconds: Optional[float] = None,
                 max_retries: int = 2,
                 summary: Optional[Dict[str, Any]] = None) -> None:
        self.id = job_id
        #: content-addressed request fingerprint (the cache key)
        self.key = key
        #: the payload handed to the worker runner; dropped on completion
        #: so finished jobs do not pin model graphs in memory
        self.request = request
        self.priority = priority
        self.timeout_seconds = timeout_seconds
        self.max_retries = max_retries
        self.summary = dict(summary or {})
        self.status = JobStatus.PENDING
        self.attempts = 0
        self.error: Optional[str] = None
        self.report = None
        self.cache_hit = False
        #: identical submissions merged onto this job while it was in flight
        self.dedup_count = 0
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._done = threading.Event()
        self._lock = threading.Lock()

    # -- state transitions ---------------------------------------------
    def mark_running(self) -> bool:
        """Claim the job for execution; False if no longer pending."""
        with self._lock:
            if self.status != JobStatus.PENDING:
                return False
            self.status = JobStatus.RUNNING
            self.started_at = time.monotonic()
            return True

    def finish(self, report) -> None:
        with self._lock:
            self.status = JobStatus.SUCCEEDED
            self.report = report
            self.finished_at = time.monotonic()
            self.request = None
        self._done.set()

    def fail(self, error: BaseException) -> None:
        with self._lock:
            self.status = JobStatus.FAILED
            self.error = f"{type(error).__name__}: {error}"
            self.finished_at = time.monotonic()
            self.request = None
        self._done.set()

    def cancel(self) -> bool:
        """Cancel a still-pending job; running jobs cannot be stopped."""
        with self._lock:
            if self.status != JobStatus.PENDING:
                return False
            self.status = JobStatus.CANCELLED
            self.finished_at = time.monotonic()
            self.request = None
        self._done.set()
        return True

    # -- completion ----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """Block until done and return the report (or raise)."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.id} still {self.status} "
                               f"after {timeout}s")
        if self.status == JobStatus.FAILED:
            raise JobFailedError(f"job {self.id}: {self.error}")
        if self.status == JobStatus.CANCELLED:
            raise JobCancelledError(f"job {self.id} was cancelled")
        return self.report

    # -- timings -------------------------------------------------------
    @property
    def queue_wait_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def service_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    # ------------------------------------------------------------------
    def to_dict(self, include_report: bool = False) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "status": self.status,
            "priority": self.priority,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "dedup_count": self.dedup_count,
            "error": self.error,
            "queue_wait_seconds": self.queue_wait_seconds,
            "service_seconds": self.service_seconds,
            "request": dict(self.summary),
        }
        if include_report and self.report is not None:
            doc["report"] = self.report.to_dict()
        return doc


class JobQueue:
    """Bounded, thread-safe max-priority queue of pending jobs."""

    def __init__(self, maxsize: int = 256, tracer=None) -> None:
        if maxsize <= 0:
            raise ValueError("queue size must be positive")
        self.maxsize = maxsize
        #: pinned tracer (the owning service's); None uses the global one
        self.tracer = tracer
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = itertools.count()
        self._heap: List[Tuple[int, int, Job]] = []

    def _tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    @property
    def depth(self) -> int:
        """Jobs actually waiting for a worker.

        Cancelled entries still sitting in the heap (they are dropped
        lazily, when popped or when ``put`` needs their slot) do not
        count: they will never run, so they are not queue *load*.
        """
        with self._lock:
            return sum(1 for _, _, job in self._heap
                       if job.status != JobStatus.CANCELLED)

    def _compact_locked(self) -> List[Job]:
        """Drop cancelled entries so they stop holding capacity."""
        live: List[Tuple[int, int, Job]] = []
        dropped: List[Job] = []
        for entry in self._heap:
            if entry[2].status == JobStatus.CANCELLED:
                dropped.append(entry[2])
            else:
                live.append(entry)
        if dropped:
            self._heap = live
            heapq.heapify(self._heap)
        return dropped

    def put(self, job: Job) -> List[Job]:
        """Enqueue ``job``; raises :class:`QueueFullError` when full.

        Returns the cancelled jobs compacted out to make room: they
        will never be popped, so the caller accounts for them.
        """
        dropped: List[Job] = []
        with self._lock:
            if len(self._heap) >= self.maxsize:
                # a burst of cancels must not cause spurious
                # backpressure: reclaim dead entries before rejecting
                dropped = self._compact_locked()
            if len(self._heap) >= self.maxsize:
                raise QueueFullError(
                    f"job queue full ({self.maxsize} pending)")
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            depth = len(self._heap)
            self._not_empty.notify()
        tracer = self._tracer()
        if tracer.enabled:
            tracer.event("queue.put", trace_id=job.id,
                         priority=job.priority, depth=depth)
        return dropped

    def get(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority job, or None on timeout.

        The condition wait is a deadline loop: with several consumers a
        notified waiter can lose the race for the single new entry, in
        which case it re-waits for the *remaining* time instead of
        returning early.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._not_empty:
            while not self._heap:
                if deadline is None:
                    self._not_empty.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            job = heapq.heappop(self._heap)[2]
            depth = len(self._heap)
        tracer = self._tracer()
        if tracer.enabled:
            tracer.event("queue.get", trace_id=job.id, depth=depth)
        return job
