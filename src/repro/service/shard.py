"""One shard of the multi-process worker fleet.

A *shard* is an OS process that owns a range of graph fingerprints
(the dispatcher's consistent-hash ring decides which).  Because every
configuration of a graph lands on the same shard, the shard's private
:class:`~repro.analysis.cache.AnalysisCache` and layer store stay hot
for exactly the graphs it owns, and no cross-process cache coherence is
needed.  Results are cached only in the parent: a job reaches a shard
after the parent's result cache has missed, so the shard keeps no
result cache of its own.  Profiling is numpy-heavy Python that holds
the GIL, so processes (not threads) are the unit that actually buys
parallelism.

Two halves live here:

* :func:`shard_main` — the child-process loop: receive ``(seq,
  request)`` tasks over a pipe, resolve a graph reference against the
  shard's private analysis cache (or rebuild the zoo graph when the
  cache no longer holds it, as after a respawn), run the runner (a
  fresh profiler around that cache by default), reply with the result
  or a typed error, flagged fatal when it is one of
  :data:`~repro.service.policy.FATAL_ERRORS`.  A failed resolve is an
  ordinary attempt failure.
* :class:`ShardHandle` — the parent-side proxy: a bounded waiting
  queue with load-shedding, exactly one task outstanding in the child
  at a time, a reader thread that completes jobs, per-attempt timeout
  enforcement by killing a wedged child, and busy-time accounting
  feeding the ``shard.<i>.utilization`` gauge and 429 Retry-After
  estimates.

Crash recovery is owned by the dispatcher's supervisor: when the child
dies, :meth:`ShardHandle.take_pending` drains the interrupted job and
the waiting queue so they can be re-dispatched onto the respawned
process.
"""
from __future__ import annotations

import functools
import multiprocessing
import signal
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from .fingerprint import resolve_request
from .policy import FATAL_ERRORS
from .queue import Job, JobStatus

__all__ = ["ShardHandle", "shard_main", "fleet_context"]

#: reader threads poll at this period so stop() is prompt
_POLL_SECONDS = 0.2

#: service time (seconds) a fresh shard assumes until its first reply
#: seeds the EWMA behind Retry-After
INITIAL_SERVICE_ESTIMATE = 0.1


def fleet_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context the fleet uses.

    ``fork`` is preferred: children inherit the parent's interpreter
    state, so test-injected runner callables need not be picklable and
    startup is milliseconds.  Platforms without ``fork`` fall back to
    the default (``spawn``) context, where custom runners must be
    importable module-level callables.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def shard_main(conn, parent_conn,
               runner: Optional[Callable[[Any], Any]]) -> None:
    """Child-process loop: tasks in, results out, until EOF or stop.

    ``parent_conn`` is the parent's end of this shard's pipe, which the
    fork duplicated into the child; it is closed first so that the
    parent's death reaches ``conn.recv()`` as EOF.
    """
    parent_conn.close()
    try:
        # a foreground Ctrl-C hits the whole process group; shutdown is
        # the parent's job (stop message, then kill), so the child must
        # not die mid-task with a KeyboardInterrupt traceback
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass                    # non-main thread (tests driving inline)
    from ..analysis.cache import AnalysisCache

    # graph references resolve against this cache, which the default
    # runner profiles through; the profiler is imported lazily so a
    # synthetic-runner fleet (tests, benchmarks) never pays for it
    analysis_cache = AnalysisCache()
    if runner is None:
        from .server import default_runner
        runner = functools.partial(default_runner,
                                   analysis_cache=analysis_cache)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            return
        _, seq, request = msg
        started = time.monotonic()
        started_cpu = time.process_time()
        ok, result, error = True, None, None
        try:
            result = runner(resolve_request(request, analysis_cache))
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            ok = False
            error = (type(exc).__name__, str(exc),
                     isinstance(exc, FATAL_ERRORS))
        # wall time drives utilization + Retry-After ETAs; CPU time is
        # contention-free (scheduling on a busy host never inflates
        # it), so it feeds scaling models
        elapsed = {"service_seconds": time.monotonic() - started,
                   "cpu_seconds": time.process_time() - started_cpu}
        try:
            conn.send(("done", seq, {"ok": ok, "result": result,
                                     "error": error, **elapsed}))
        except Exception as exc:  # unpicklable result, closed pipe, ...
            try:
                conn.send(("done", seq, {
                    "ok": False, "result": None,
                    "error": (type(exc).__name__,
                              f"shard reply failed: {exc}", False),
                    **elapsed}))
            except Exception:
                return


class ShardHandle:
    """Parent-side proxy for one shard process.

    Holds the shard's bounded waiting queue and keeps exactly one task
    outstanding in the child, so the child pipe never backs up and a
    crash loses at most one in-flight job (recovered by the
    supervisor).  ``on_reply(handle, job, reply)`` is the dispatcher's
    completion callback, invoked on this shard's reader thread;
    ``on_cancel(job)`` reports a job cancelled while it waited, which
    the handle drops without sending it.  ``on_cancel`` runs under the
    handle's lock, so it must not call back into the handle.
    """

    def __init__(self, shard_id: int, *,
                 on_reply: Callable[["ShardHandle", Job, dict], None],
                 on_cancel: Callable[[Job], None],
                 runner: Optional[Callable[[Any], Any]] = None,
                 queue_size: int = 16) -> None:
        if queue_size <= 0:
            raise ValueError("shard queue size must be positive")
        self.shard_id = shard_id
        self.queue_size = queue_size
        self._on_reply = on_reply
        self._on_cancel = on_cancel
        self._runner = runner
        self._lock = threading.Lock()
        self._waiting: Deque[Job] = deque()
        self._current: Optional[Job] = None
        self._current_seq = -1
        self._current_deadline: Optional[float] = None
        self._timed_out = False
        self._seq = 0
        self._stopping = False
        self._proc = None
        self._conn = None
        self._reader: Optional[threading.Thread] = None
        # -- accounting ------------------------------------------------
        self.started_at = time.monotonic()
        self.busy_seconds = 0.0
        self.cpu_seconds = 0.0
        self.completed = 0
        self.respawns = 0
        self.cancelled_dropped = 0
        #: EWMA of observed service time, seeds the Retry-After estimate
        self.ewma_service_seconds = INITIAL_SERVICE_ESTIMATE

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        ctx = fleet_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=shard_main,
            args=(child_conn, parent_conn, self._runner),
            name=f"proof-shard-{self.shard_id}", daemon=True)
        proc.start()
        child_conn.close()
        reader = threading.Thread(
            target=self._reader_loop, args=(parent_conn, proc),
            name=f"proof-shard-{self.shard_id}-reader", daemon=True)
        with self._lock:
            self._proc, self._conn, self._reader = proc, parent_conn, reader
            self._current = None
            self._current_deadline = None
            self._timed_out = False
        reader.start()
        with self._lock:
            self._pump_locked()

    def stop(self, join_timeout: float = 5.0) -> None:
        with self._lock:
            self._stopping = True
            conn, proc, reader = self._conn, self._proc, self._reader
        if conn is not None:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        if proc is not None:
            proc.join(join_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(join_timeout)
        if reader is not None:
            reader.join(join_timeout)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def is_alive(self) -> bool:
        proc = self._proc
        return proc is not None and proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        return proc.pid if proc is not None else None

    def needs_respawn(self) -> bool:
        return not self._stopping and not self.is_alive()

    # -- queueing ------------------------------------------------------
    @property
    def depth(self) -> int:
        """Live jobs on this shard: waiting (non-cancelled) + running."""
        with self._lock:
            return self._live_depth_locked()

    def _live_depth_locked(self) -> int:
        waiting = sum(1 for job in self._waiting
                      if job.status != JobStatus.CANCELLED)
        return waiting + (1 if self._current is not None else 0)

    @property
    def utilization(self) -> float:
        """Fraction of this shard's lifetime spent executing jobs."""
        uptime = time.monotonic() - self.started_at
        if uptime <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / uptime)

    def retry_after(self) -> float:
        """Seconds until this shard expects to absorb one more job,
        derived from the observed (EWMA) service time and the backlog."""
        with self._lock:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        backlog = self._live_depth_locked()
        return max(0.05, self.ewma_service_seconds * max(1, backlog))

    def enqueue(self, job: Job, *, shed: bool = True) -> None:
        """Queue a job; raises :class:`~repro.service.dispatch.
        ShardBusyError` when the bounded queue is full (``shed=False``
        bypasses the bound for supervisor re-dispatch of drained
        jobs)."""
        with self._lock:
            if shed and self._live_depth_locked() >= self.queue_size:
                raise self._shed_error()
            self._waiting.append(job)
            self._pump_locked()

    def requeue_front(self, job: Job) -> None:
        """Put a retrying job at the head of the line (it keeps its
        queue position across attempts)."""
        with self._lock:
            self._waiting.appendleft(job)
            self._pump_locked()

    def _shed_error(self) -> Exception:
        """Build the load-shed error; the caller holds ``self._lock``."""
        from .dispatch import ShardBusyError
        return ShardBusyError(
            f"shard {self.shard_id} queue full "
            f"({self.queue_size} pending)",
            retry_after=self._retry_after_locked())

    def _pump_locked(self) -> None:
        """Send the next live waiting job to an idle child."""
        if self._current is not None or self._stopping:
            return
        conn = self._conn
        if conn is None or not self.is_alive():
            return
        while self._waiting:
            job = self._waiting.popleft()
            # a retrying or drained job is already running
            if job.status != JobStatus.RUNNING and not job.mark_running():
                self._drop_cancelled_locked(job)
                continue
            job.attempts += 1
            self._seq += 1
            self._current = job
            self._current_seq = self._seq
            self._timed_out = False
            self._current_deadline = None
            if job.timeout_seconds is not None:
                self._current_deadline = \
                    time.monotonic() + job.timeout_seconds
            try:
                conn.send(("job", self._seq, job.request))
            except (OSError, BrokenPipeError):
                # child died between is_alive() and send; the
                # supervisor will drain _current and re-dispatch
                self._current_deadline = None
            return

    def _drop_cancelled_locked(self, job: Job) -> None:
        self.cancelled_dropped += 1
        self._on_cancel(job)

    # -- crash / timeout recovery --------------------------------------
    def take_pending(self) -> Tuple[Optional[Job], bool, List[Job]]:
        """Drain everything queued on a dead incarnation.

        Returns ``(interrupted job, interrupted-by-timeout?, waiting
        jobs)``; the caller (the supervisor) re-dispatches them after
        respawning the process.
        """
        with self._lock:
            current, timed_out = self._current, self._timed_out
            waiting = []
            for job in self._waiting:
                if job.status in (JobStatus.PENDING, JobStatus.RUNNING):
                    waiting.append(job)
                else:
                    self._drop_cancelled_locked(job)
            self._waiting.clear()
            self._current = None
            self._current_deadline = None
            self._timed_out = False
            return current, timed_out, waiting

    def respawn(self) -> None:
        old_reader = self._reader
        if old_reader is not None:
            old_reader.join(timeout=5.0)
        conn = self._conn
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self.respawns += 1
        self.start()

    # -- reader thread -------------------------------------------------
    def _reader_loop(self, conn, proc) -> None:
        while True:
            if self._stopping:
                return
            with self._lock:
                deadline = self._current_deadline
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._kill_for_timeout(proc)
                        continue
                    if not conn.poll(min(remaining, _POLL_SECONDS)):
                        continue
                elif not conn.poll(_POLL_SECONDS):
                    continue
                msg = conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                return          # dead child: the supervisor takes over
            if msg[0] != "done":
                continue
            self._handle_done(msg[1], msg[2])

    def _kill_for_timeout(self, proc) -> None:
        """A wedged attempt: kill the process (the only way to stop a
        GIL-holding kernel) and let the supervisor respawn + retry."""
        with self._lock:
            if self._current is None:
                return
            self._timed_out = True
            self._current_deadline = None
        proc.kill()

    def _handle_done(self, seq: int, reply: dict) -> None:
        with self._lock:
            if seq != self._current_seq or self._current is None:
                return          # stale reply from a killed attempt
            job = self._current
            self._current = None
            self._current_deadline = None
            service = float(reply.get("service_seconds", 0.0))
            self.busy_seconds += service
            self.cpu_seconds += float(reply.get("cpu_seconds", service))
            self.completed += 1
            self.ewma_service_seconds = \
                0.8 * self.ewma_service_seconds + 0.2 * service
        self._on_reply(self, job, reply)
        with self._lock:
            self._pump_locked()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            depth = self._live_depth_locked()
        return {
            "pid": self.pid,
            "alive": self.is_alive(),
            "depth": depth,
            "capacity": self.queue_size,
            "utilization": self.utilization,
            "busy_seconds": self.busy_seconds,
            "cpu_seconds": self.cpu_seconds,
            "completed": self.completed,
            "respawns": self.respawns,
            "cancelled_dropped": self.cancelled_dropped,
            "ewma_service_seconds": self.ewma_service_seconds,
        }
