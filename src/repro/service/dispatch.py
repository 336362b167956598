"""The fleet dispatcher: consistent hashing, supervision, load-shedding.

:class:`Dispatcher` is the multi-process engine under the shared
:class:`~repro.service.policy.SchedulingPolicy` (which owns the cache
short-circuits, single-flight dedup, the retry budget and completion):
it fronts N shard *processes* (:mod:`repro.service.shard`) instead of
N threads, so GIL-holding numpy kernels actually run in parallel.

* **Consistent hashing by graph** — a :class:`HashRing` with
  :data:`REPLICAS` virtual nodes per shard maps the *graph*
  fingerprint of every request onto exactly one shard.  Every
  configuration of one graph (each precision, backend and platform)
  lands on the same process, so that shard's private
  :class:`~repro.analysis.cache.AnalysisCache` builds the graph's
  shapes, AR and fusion structure once and re-times the siblings from
  its layer records, as the thread tier's shared cache does.  A
  request that travels by graph reference routes by the referenced
  fingerprint, so it lands on the shard that holds its graph and
  crosses the pipe as a few strings.  Any other request routes by its
  key.  Results are cached only in the parent's :class:`ResultCache`,
  which the policy consults before any job is dispatched, and the
  single-flight table needs no cross-process coordination: exactly
  one task per request fingerprint crosses the process boundary.  The
  cost is balance: a hot graph's siblings queue on one shard.
* **Load-shedding** — each shard carries a bounded waiting queue; when
  it is full, submission fails with :class:`ShardBusyError` carrying a
  ``retry_after`` estimate (EWMA service time x backlog), which the
  HTTP layer surfaces as ``429`` + ``Retry-After``.
* **Reply-driven retries** — a transient failure backs off on the
  shard's reader thread and requeues the job at the head of its shard.
* **Supervision** — a supervisor thread, waking every
  :data:`SUPERVISOR_POLL_SECONDS`, respawns crashed shard processes
  and drains their queued jobs back for re-dispatch; the one
  interrupted job counts a :class:`WorkerCrashError` attempt against
  its retry budget (a crashing request must not crash-loop the shard
  forever).  Per-attempt timeouts are enforced by killing the wedged
  process — the escalation a thread pool cannot perform.
"""
from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .cache import ResultCache
from .fingerprint import ProfileRequest
from .policy import SchedulingPolicy
from .queue import Job, JobTimeoutError
from .shard import ShardHandle

__all__ = ["HashRing", "Dispatcher", "ShardBusyError", "WorkerCrashError"]

#: virtual nodes per shard on the hash ring
REPLICAS = 64

#: how often the supervisor looks for dead shard processes
SUPERVISOR_POLL_SECONDS = 0.1


class ShardBusyError(RuntimeError):
    """A shard's bounded queue rejected a submission (load-shedding).

    ``retry_after`` estimates, from the shard's observed service time
    and current backlog, when a retry is likely to be accepted; the
    HTTP layer maps this to ``429`` with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class WorkerCrashError(RuntimeError):
    """A shard process died while executing the job (transient)."""


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each shard is hashed onto the ring :data:`REPLICAS` times; a key is
    owned by the first virtual node clockwise from its own hash.  The
    map is a total function (every key has exactly one owner), and
    removing a shard only moves the keys that shard owned — the
    property the shard-rebalance tests pin down.
    """

    def __init__(self, shard_ids: Iterable[int]) -> None:
        self._points: List[int] = []
        self._owners: List[int] = []
        self._ids: List[int] = []
        for shard_id in shard_ids:
            self.add(shard_id)
        if not self._ids:
            raise ValueError("hash ring needs at least one shard")

    @staticmethod
    def _hash(token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _rebuild(self, ids: List[int]) -> None:
        nodes = sorted(
            (self._hash(f"shard-{shard_id}#{replica}"), shard_id)
            for shard_id in ids for replica in range(REPLICAS))
        self._points = [point for point, _ in nodes]
        self._owners = [owner for _, owner in nodes]
        self._ids = sorted(ids)

    def add(self, shard_id: int) -> None:
        if shard_id in self._ids:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._rebuild(self._ids + [shard_id])

    def remove(self, shard_id: int) -> None:
        if shard_id not in self._ids:
            raise KeyError(f"shard {shard_id} not on the ring")
        if len(self._ids) == 1:
            raise ValueError("cannot remove the last shard")
        self._rebuild([s for s in self._ids if s != shard_id])

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(self._ids)

    def shard_for(self, key: str) -> int:
        idx = bisect.bisect_right(self._points, self._hash(key))
        if idx == len(self._points):
            idx = 0             # wrap past the top of the ring
        return self._owners[idx]

    def ownership(self, keys: Iterable[str]) -> Dict[int, List[str]]:
        """Partition ``keys`` by owning shard (diagnostics + tests)."""
        owned: Dict[int, List[str]] = {sid: [] for sid in self._ids}
        for key in keys:
            owned[self.shard_for(key)].append(key)
        return owned


class Dispatcher(SchedulingPolicy):
    """Routes jobs onto shard processes."""

    _refusal = (ShardBusyError, "shed", "jobs.shed")
    _admitted = "dispatched"

    def __init__(
        self,
        runner: Optional[Callable[[Any], Any]] = None,
        *,
        cache: ResultCache,
        metrics: Optional[MetricsRegistry] = None,
        processes: int = 2,
        shard_queue_size: int = 16,
        tracer=None,
    ) -> None:
        if processes <= 0:
            raise ValueError("need at least one shard process")
        super().__init__(cache=cache, metrics=metrics, tracer=tracer)
        self._supervisor: Optional[threading.Thread] = None
        self._running = False
        self.ring = HashRing(range(processes))
        self.shards: Dict[int, ShardHandle] = {
            shard_id: ShardHandle(
                shard_id, on_reply=self._on_reply,
                on_cancel=self._cancelled, runner=runner,
                queue_size=shard_queue_size)
            for shard_id in range(processes)
        }
        for shard_id, handle in self.shards.items():
            self.metrics.gauge(f"shard.{shard_id}.queue.depth",
                               lambda h=handle: h.depth)
            self.metrics.gauge(f"shard.{shard_id}.utilization",
                               lambda h=handle: h.utilization)
        self.metrics.gauge("queue.depth", self._depth)
        self.metrics.gauge(
            "shard.utilization",
            lambda: sum(h.utilization for h in self.shards.values())
            / len(self.shards))

    # -- lifecycle -----------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._stop_event.clear()
        for handle in self.shards.values():
            handle.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="proof-fleet-supervisor",
            daemon=True)
        self._supervisor.start()

    def stop(self) -> None:
        """Stop the supervisor and the shard processes.

        Jobs still waiting on a shard stay pending, mirroring
        :meth:`WorkerPool.stop`.
        """
        self._running = False
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        for handle in self.shards.values():
            handle.stop()

    def stats(self) -> Dict[str, Any]:
        """This engine's section of the service's ``/stats``."""
        return {
            "queue": {"depth": self._depth(),
                      "capacity": sum(h.queue_size
                                      for h in self.shards.values()),
                      "inflight": self.inflight_count},
            "shards": {shard_id: handle.stats()
                       for shard_id, handle in self.shards.items()},
            "workers": self.num_shards,
        }

    def _depth(self) -> int:
        return sum(h.depth for h in self.shards.values())

    # ------------------------------------------------------------------
    def shard_for(self, job: Job) -> int:
        """The shard owning ``job``: by its request's graph fingerprint
        (a reference's, or the one memoized on the graph), so both
        request forms of one graph meet on one shard; any other request
        routes by its key."""
        request = job.request
        return self.ring.shard_for(
            request.graph_fingerprint()
            if isinstance(request, ProfileRequest) else job.key)

    def _enqueue(self, job: Job, span) -> None:
        shard_id = self.shard_for(job)
        span.set("shard", shard_id)
        self.shards[shard_id].enqueue(job)

    # -- completion (runs on shard reader threads) ---------------------
    def _on_reply(self, handle: ShardHandle, job: Job, reply: dict) -> None:
        if reply["ok"]:
            self._event(handle, job, "succeeded")
            self._succeed(job, reply["result"],
                          reply.get("service_seconds", 0.0))
            return
        type_name, message, fatal = reply["error"]
        self._retry_or_fail(handle, job,
                            self._revive_error(type_name, message), fatal)

    def _retry_or_fail(self, handle: ShardHandle, job: Job,
                       error: BaseException, fatal: bool = False) -> None:
        """A transient failure requeues after its backoff while the
        budget lasts; a fatal one, or the last, fails the job.

        The wait runs on this shard's reader thread: the shard backs
        off with its failing job, and ``stop()`` interrupts it.
        """
        if not fatal and self._retry(job):
            handle.requeue_front(job)
            return
        self._event(handle, job, "failed", error)
        self._fail(job, error, fatal)

    def _event(self, handle: ShardHandle, job: Job, outcome: str,
               error: Optional[BaseException] = None) -> None:
        tracer = self._tracer()
        if tracer.enabled:
            attrs = {} if error is None else {"error": str(error)}
            tracer.event("dispatch.reply", trace_id=job.id,
                         shard=handle.shard_id, outcome=outcome, **attrs)

    # -- supervision ---------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop_event.wait(SUPERVISOR_POLL_SECONDS):
            for handle in self.shards.values():
                if handle.needs_respawn():
                    self._respawn(handle)

    def _respawn(self, handle: ShardHandle) -> None:
        interrupted, timed_out, waiting = handle.take_pending()
        handle.respawn()
        self.metrics.counter("shard.respawns").inc()
        tracer = self._tracer()
        if tracer.enabled:
            tracer.event("dispatch.respawn", shard=handle.shard_id,
                         drained=len(waiting) + (interrupted is not None))
        if interrupted is not None:
            if timed_out:
                error: BaseException = JobTimeoutError(
                    f"attempt {interrupted.attempts} exceeded "
                    f"{interrupted.timeout_seconds}s "
                    f"(shard {handle.shard_id} killed)")
            else:
                error = WorkerCrashError(
                    f"shard {handle.shard_id} died while executing "
                    f"job {interrupted.id}")
            self._retry_or_fail(handle, interrupted, error)
        for job in waiting:
            # drained jobs were already admitted once: re-dispatch
            # without shedding so the crash cannot lose them
            self.metrics.counter("jobs.drained").inc()
            handle.enqueue(job, shed=False)
