"""Profiling-as-a-service layer on top of the PRoof profiler.

Turns the single-shot :class:`~repro.core.profiler.Profiler` into a
long-running concurrent service: one admission and completion policy
(cache short-circuits, single-flight dedup, retries) over two execution
engines — a thread pool draining a bounded priority queue, or a fleet
of shard processes behind a consistent-hash ring — plus a
content-addressed result cache keyed by request fingerprints and an
``http.server`` JSON API.
"""
from .cache import CacheStats, ResultCache
from .dispatch import Dispatcher, HashRing, ShardBusyError, WorkerCrashError
from .fingerprint import CACHE_KEY_VERSION, ProfileRequest, request_fingerprint
from .queue import (Job, JobCancelledError, JobFailedError, JobQueue,
                    JobStatus, JobTimeoutError, QueueFullError)
from .policy import SchedulingPolicy
from .shard import ShardHandle
from .workers import WorkerPool
from .server import (ProfilingServer, ProfilingService,
                     ShardedProfilingService, default_runner, make_service)

__all__ = [
    "CacheStats", "ResultCache",
    "Dispatcher", "HashRing", "ShardBusyError", "WorkerCrashError",
    "CACHE_KEY_VERSION", "ProfileRequest", "request_fingerprint",
    "Job", "JobCancelledError", "JobFailedError", "JobQueue", "JobStatus",
    "JobTimeoutError", "QueueFullError",
    "SchedulingPolicy", "ShardHandle",
    "WorkerPool",
    "ProfilingServer", "ProfilingService", "ShardedProfilingService",
    "default_runner", "make_service",
]
