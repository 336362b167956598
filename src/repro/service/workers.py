"""The thread tier: N worker threads draining one priority queue.

``WorkerPool`` runs N worker loops on a :class:`ThreadPoolExecutor`.
Each loop pops the highest-priority job off the shared
:class:`~repro.service.queue.JobQueue` and executes the injected
``runner`` (the real profiler in production, anything callable in
tests).  Admission, dedup, retry budget and completion are the shared
:class:`~repro.service.policy.SchedulingPolicy`; the pool adds only
what a thread engine does:

* **synchronous attempts** — a job's attempts and backoffs all run on
  the worker that popped it, inside one ``job.execute`` span; each
  attempt first resolves a graph reference against the pool's
  analysis cache, which holds every admitted request's graph;
* **per-attempt timeout** — a timed attempt runs on a helper thread and
  is abandoned when it overruns; the timeout counts as a transient
  failure, so it participates in the retry budget;
* **backpressure** — a full queue refuses the submission with
  :class:`~repro.service.queue.QueueFullError` (HTTP 503), counted in
  ``jobs.rejected``.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple, Type

from ..analysis.cache import AnalysisCache
from ..backends.base import UnsupportedModelError
from ..obs.metrics import MetricsRegistry
from .cache import ResultCache
from .fingerprint import ProfileRequest, resolve_request
from .policy import SchedulingPolicy
from .queue import Job, JobQueue, JobTimeoutError, QueueFullError

__all__ = ["WorkerPool"]

#: worker loops poll at this period so ``stop()`` is prompt
_POLL_SECONDS = 0.1


class WorkerPool(SchedulingPolicy):
    """Executes queued jobs on worker threads."""

    _refusal = (QueueFullError, "rejected", "jobs.rejected")

    def __init__(
        self,
        runner: Callable[[Any], Any],
        *,
        queue: JobQueue,
        cache: ResultCache,
        metrics: Optional[MetricsRegistry] = None,
        num_workers: int = 4,
        backoff_seconds: float = 0.05,
        fatal_exceptions: Tuple[Type[BaseException], ...] =
            (UnsupportedModelError,),
        analysis_cache: Optional[AnalysisCache] = None,
        tracer=None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("need at least one worker")
        super().__init__(cache=cache, metrics=metrics,
                         backoff_seconds=backoff_seconds,
                         fatal_exceptions=fatal_exceptions, tracer=tracer)
        self._runner = runner
        self._queue = queue
        #: structural tier below the report cache — report-cache misses
        #: that share a graph/backend/precision still skip re-analysis.
        #: The pool resolves graph references to the graphs it holds
        #: and reports it in ``/stats``; the runner is what profiles
        #: through it (see ``server.default_runner``).
        self.analysis_cache = analysis_cache
        self.num_workers = num_workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._stop_event.clear()
        self._executor = ThreadPoolExecutor(
            max_workers=self.num_workers, thread_name_prefix="proof-worker")
        for _ in range(self.num_workers):
            self._executor.submit(self._worker_loop)

    def stop(self) -> None:
        """Stop accepting work and join the worker threads.

        Jobs still pending in the queue stay pending; abandon or restart
        the pool to drain them.  A worker mid-backoff observes the stop
        event immediately and fails its job with the last error rather
        than holding shutdown for the rest of the backoff chain.
        """
        self._running = False
        self._stop_event.set()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def stats(self) -> Dict[str, Any]:
        """This engine's section of the service's ``/stats``."""
        section: Dict[str, Any] = {
            "queue": {"depth": self._queue.depth,
                      "capacity": self._queue.maxsize,
                      "inflight": self.inflight_count},
            "workers": self.num_workers,
        }
        if self.analysis_cache is not None:
            section["analysis_cache"] = self.analysis_cache.stats()
        return section

    # ------------------------------------------------------------------
    def _enqueue(self, job: Job, span) -> None:
        request = job.request
        if isinstance(request, ProfileRequest) and request.graph is not None \
                and self.analysis_cache is not None:
            # hold the graph now, so a sibling reference that a second
            # worker pops before this job runs still finds it
            self.analysis_cache.ensure_shapes(request.graph)
        for dropped in self._queue.put(job):
            self._cancelled(dropped)

    def _worker_loop(self) -> None:
        while self._running:
            job = self._queue.get(timeout=_POLL_SECONDS)
            if job is not None:
                self._execute(job)

    def _execute(self, job: Job) -> None:
        if not job.mark_running():
            self._cancelled(job)
            return
        wait = job.queue_wait_seconds
        if wait is not None:
            self.metrics.histogram("queue.wait_seconds").observe(wait)
        tracer = self._tracer()
        report = error = None
        with tracer.span("job.execute", trace_id=job.id,
                         key=job.key[:16]) as exec_span:
            while True:
                job.attempts += 1
                try:
                    # the attempt span records error=True + the
                    # exception type when the runner raises through it
                    with tracer.span("job.attempt", trace_id=job.id,
                                     attempt=job.attempts) as attempt_span:
                        report = self._run_attempt(job, attempt_span)
                    error = None
                    break
                except Exception as exc:
                    error, fatal = exc, isinstance(exc, self._fatal)
                    if fatal or not self._retry(job):
                        break
            exec_span.set("attempts", job.attempts)
            if error is None:
                exec_span.set("outcome", "succeeded")
            else:
                exec_span.set("outcome", "failed")
                exec_span.set("error", str(error))
        # complete only after the span is closed and recorded, so a
        # waiter that reads the trace right away sees the full job
        if error is None:
            self._succeed(job, report)
        else:
            self._fail(job, error, fatal)

    def _run(self, job: Job):
        """One attempt's work: resolve a graph reference, then run."""
        return self._runner(resolve_request(job.request,
                                            self.analysis_cache))

    def _run_attempt(self, job: Job, parent_span=None):
        if job.timeout_seconds is None:
            return self._run(job)
        box: list = []
        error: list = []
        tracer = self._tracer()
        # explicit parent: the helper thread's span stack is empty, so
        # without it the runner's spans would detach from the job's
        # trace (a no-op parent has no span_id and links nothing)
        parent = parent_span if hasattr(parent_span, "span_id") else None

        def call() -> None:
            try:
                with tracer.span("job.attempt.body", trace_id=job.id,
                                 parent=parent):
                    box.append(self._run(job))
            except BaseException as exc:  # noqa: BLE001 - reraised below
                error.append(exc)

        helper = threading.Thread(
            target=call, daemon=True, name=f"proof-attempt-{job.id}")
        helper.start()
        helper.join(job.timeout_seconds)
        if helper.is_alive():
            # the attempt keeps running detached; its result is discarded
            raise JobTimeoutError(
                f"attempt {job.attempts} exceeded {job.timeout_seconds}s")
        if error:
            raise error[0]
        return box[0]
