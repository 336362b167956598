"""The scheduling policy both service tiers share.

:class:`SchedulingPolicy` decides everything about a job except how it
runs: the cache and negative-cache short-circuits, single-flight dedup
onto a live leader, the retry budget with its interruptible backoff,
and completion.  Two execution engines subclass it —
:class:`~repro.service.workers.WorkerPool` (threads draining one
priority queue) and :class:`~repro.service.dispatch.Dispatcher` (shard
processes behind a hash ring) — so each rule is written once and a fix
to one tier fixes both.  Completion publishes a result to the cache
before it unregisters the leader, so a follower finds either the
leader in flight or the result cached, never neither.  The policy's
two parameters are constants: :data:`FATAL_ERRORS`, the errors that
are never retried and are negative-cached, and :data:`BACKOFF_SECONDS`,
the first retry's wait.  See docs/SERVICE.md.
"""
from __future__ import annotations

import logging
import threading
from typing import Any, Dict, Optional, Tuple, Type

from ..backends.base import UnsupportedModelError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from .cache import ResultCache
from .queue import Job

__all__ = ["BACKOFF_SECONDS", "FATAL_ERRORS", "SchedulingPolicy"]

log = logging.getLogger(__name__)

#: errors that are deterministic for a request: no retry, negative-
#: cached, and rebuilt as their own type when revived from a record
FATAL_ERRORS: Tuple[Type[BaseException], ...] = (UnsupportedModelError,)

#: first retry's backoff; each later retry doubles it
BACKOFF_SECONDS = 0.05


class SchedulingPolicy:
    """Admission and completion policy; subclasses add an engine."""

    #: the engine's refusal: (exception raised by ``_enqueue``, span
    #: outcome, counter name)
    _refusal: Tuple[Type[Exception], str, str]
    #: span outcome of an admitted job
    _admitted = "enqueued"

    def __init__(self, *, cache: ResultCache,
                 metrics: Optional[MetricsRegistry],
                 tracer) -> None:
        #: pinned tracer (the owning service's); None uses the global one
        self.tracer = tracer
        self._cache = cache
        self.metrics = metrics or MetricsRegistry()
        self._inflight: Dict[str, Job] = {}
        self._inflight_lock = threading.Lock()
        #: set on shutdown so retry backoffs wake immediately instead
        #: of sleeping out the whole exponential chain
        self._stop_event = threading.Event()

    @property
    def inflight_count(self) -> int:
        with self._inflight_lock:
            return len(self._inflight)

    def _tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    # -- admission -----------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Admit a job, dedup against the caches and in-flight work.

        Returns the job that actually tracks the result: the given one,
        or the in-flight leader it was merged onto.  The span carries
        the job id as its ``trace_id``, so one job's submit, queue,
        attempt and cache-store spans correlate into one timeline.
        """
        with self._tracer().span("job.submit", trace_id=job.id,
                                 key=job.key[:16]) as span:
            outcome = self.complete_cached(job)
            if outcome is not None:
                span.set("outcome", outcome)
                return job
            with self._inflight_lock:
                leader = self._inflight.get(job.key)
                if leader is not None and not leader.done:
                    leader.dedup_count += 1
                    span.set("outcome", "deduplicated")
                    span.set("merged_onto", leader.id)
                    self.metrics.counter("jobs.deduplicated").inc()
                    return leader
                self._inflight[job.key] = job
            refused, outcome, counter = self._refusal
            try:
                self._enqueue(job, span)
            except refused:
                self._drop_inflight(job)
                span.set("outcome", outcome)
                self.metrics.counter(counter).inc()
                raise
            span.set("outcome", self._admitted)
            self.metrics.counter("jobs.submitted").inc()
            return job

    def complete_cached(self, job: Job) -> Optional[str]:
        """Finish ``job`` from the result or the negative cache.

        Returns the outcome (``"cache_hit"`` or ``"negative_hit"``), or
        None on a miss, leaving the job untouched.  A fatal error is as
        deterministic as a report, so a negative hit fails at once with
        the original error instead of re-running the pipeline.
        """
        cached = self._cache.get(job.key)
        if cached is not None:
            job.cache_hit = True
            job.finish(cached)
            self.metrics.counter("jobs.cache_hits").inc()
            return "cache_hit"
        failure = self._cache.get_failure(job.key)
        if failure is not None:
            job.cache_hit = True
            job.fail(self._revive_error(*failure))
            self.metrics.counter("jobs.negative_hits").inc()
            return "negative_hit"
        return None

    def _enqueue(self, job: Job, span) -> None:
        """Hand an admitted leader to the engine, or raise the refusal."""
        raise NotImplementedError

    # -- retries -------------------------------------------------------
    def _retry(self, job: Job) -> bool:
        """Spend one retry on a transient failure of ``job``.

        Counts the retry and waits out its backoff; False when the
        budget (``max_retries + 1`` attempts) is spent or ``stop()``
        interrupts the wait.
        """
        if job.attempts > job.max_retries or self._stop_event.is_set():
            return False
        self.metrics.counter("jobs.retries").inc()
        return not self._stop_event.wait(
            BACKOFF_SECONDS * (2 ** (job.attempts - 1)))

    # -- completion ----------------------------------------------------
    def _succeed(self, job: Job, report: Any,
                 service_seconds: Optional[float] = None) -> None:
        try:
            with self._tracer().span("cache.store", trace_id=job.id):
                self._cache.put(job.key, report)
        except Exception:
            # an uncacheable result must not strand the job or kill the
            # completing thread: serve it and skip the cache
            self.metrics.counter("cache.store_errors").inc()
            log.warning("job %s: result not cached", job.id, exc_info=True)
        self._drop_inflight(job)
        job.finish(report)
        self.metrics.counter("jobs.succeeded").inc()
        if service_seconds is None:
            service_seconds = job.service_seconds or 0.0
        self.metrics.histogram("service.seconds").observe(service_seconds)

    def _fail(self, job: Job, error: BaseException,
              fatal: bool = False) -> None:
        if fatal:
            self._cache.put_failure(job.key, error)
        self._drop_inflight(job)
        job.fail(error)
        self.metrics.counter("jobs.failed").inc()
        log.warning("job %s failed after %d attempt(s): %s",
                    job.id, job.attempts, job.error)

    def _cancelled(self, job: Job) -> None:
        """A job cancelled while it waited has left the engine."""
        self._drop_inflight(job)
        self.metrics.counter("jobs.cancelled").inc()

    # ------------------------------------------------------------------
    def _revive_error(self, type_name: str, message: str) -> BaseException:
        """Rebuild an error from its ``(type name, message)`` record.

        A type among :data:`FATAL_ERRORS` round-trips exactly; any
        other becomes a RuntimeError carrying the original text.
        """
        for cls in FATAL_ERRORS:
            if cls.__name__ == type_name:
                return cls(message)
        return RuntimeError(f"{type_name}: {message}")

    def _drop_inflight(self, job: Job) -> None:
        with self._inflight_lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
