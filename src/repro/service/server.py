"""The profiling service: programmatic facade + HTTP JSON API.

:class:`ProfilingService` glues the pieces together — it resolves
model names through the zoo registry, validates the configuration,
fingerprints the request, and hands a :class:`Job` to its scheduler
(whose shared policy consults the caches and the single-flight table
first).  The first named request for a ``(model, batch)`` builds and
fingerprints the zoo graph here, in the caller's thread; every later
configuration of it is keyed from the memoized fingerprint and carries
a :class:`~repro.service.fingerprint.GraphRef`, which the scheduler's
engine resolves inside the attempt (see
:func:`~repro.service.fingerprint.resolve_request`).  The default
runner builds a fresh :class:`~repro.core.profiler.Profiler` per job
around the service's thread-safe analysis cache.

:class:`ProfilingServer` exposes the facade over stdlib
``http.server``:

* ``POST /profile`` — submit a request; ``{"wait": true}`` blocks for
  the result, otherwise 202 + job id;
* ``GET /job/<id>`` — job status (+ report once succeeded);
* ``GET /stats`` — cache/queue/worker metrics as JSON
  (``/stats?format=text`` for the flat text dump);
* ``GET /metrics`` — Prometheus exposition format
  (``text/plain; version=0.0.4`` with ``# HELP``/``# TYPE`` lines);
* ``GET /trace/<id>`` — the job's span timeline as Chrome trace events
  (save the ``traceEvents`` array and open it in Perfetto);
* ``GET /healthz`` — liveness.

Client errors are 4xx, a full queue is 503 (thread tier) or 429 with a
``Retry-After`` header (sharded fleet, load-shedding), and a failed job
reports its error string rather than crashing the server.

:class:`ShardedProfilingService` swaps the thread pool for the
multi-process shard fleet (:mod:`repro.service.dispatch`) behind the
same facade; :func:`make_service` picks the tier from a process count.
Either way the service's own :class:`ResultCache` (with ``cache_dir``,
its disk tier too) is the only result cache: fleet shards route both
request forms by graph fingerprint and keep only analysis caches.
"""
from __future__ import annotations

import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Union
from urllib.parse import parse_qs, urlparse

from ..analysis.cache import AnalysisCache
from ..backends import backend_by_name
from ..core.profiler import Profiler
from ..core.report import MetricSource, ProfileReport
from ..hardware.specs import platform as platform_spec
from ..ir.graph import Graph
from ..ir.shape_inference import infer_shapes
from ..ir.tensor import DataType
from ..models.registry import build_model
from ..obs.export import chrome_trace_events
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from ..obs.trace import Tracer
from .cache import ResultCache
from .dispatch import Dispatcher, ShardBusyError
from .fingerprint import GraphRef, ProfileRequest
from .queue import Job, JobQueue, JobStatus, QueueFullError
from .workers import WorkerPool

__all__ = ["ProfilingService", "ShardedProfilingService",
           "ProfilingServer", "default_runner", "make_service"]

log = logging.getLogger(__name__)


def default_runner(request: ProfileRequest,
                   analysis_cache: Union[AnalysisCache, bool, None] = True,
                   tracer=None) -> ProfileReport:
    """Profile a request with a fresh, thread-private Profiler.

    Profiler state is per-call, but the (thread-safe) ``analysis_cache``
    may be shared across calls so structurally identical requests skip
    shape inference and AR/OAR construction even when they miss the
    report cache (different precision/backend sweep points).  The
    pinned ``tracer`` (the service's) makes the profiler's pipeline
    spans nest under the job's attempt span.
    """
    profiler = Profiler(request.backend, request.platform,
                        request.precision, request.metric_source,
                        analysis_cache=analysis_cache, tracer=tracer)
    return profiler.profile(request.graph)


class ProfilingService:
    """Long-running concurrent profiling front-end.

    Validation, fingerprinting, the result cache, job tracking and
    tracing live here; execution goes to one scheduler (the thread
    tier's :class:`WorkerPool` here, the fleet's :class:`Dispatcher` in
    :class:`ShardedProfilingService`) through ``start``, ``stop``,
    ``submit``, ``inflight_count`` and its ``stats()`` section.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        queue_size: int = 256,
        cache_bytes: int = 64 << 20,
        cache_entries: int = 512,
        cache_dir: Optional[str] = None,
        negative_ttl: float = 300.0,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        default_timeout: Optional[float] = None,
        runner=None,
        max_tracked_jobs: int = 4096,
        analysis_cache: Optional[AnalysisCache] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(max_bytes=cache_bytes,
                                 max_entries=cache_entries,
                                 disk_dir=cache_dir,
                                 negative_ttl=negative_ttl)
        #: service-wide span collector behind ``/trace/<job>``: a
        #: bounded ring, always on — per-job span overhead is a few µs
        #: against multi-ms profiling jobs
        self.tracer = tracer if tracer is not None else Tracer(
            max_spans=50_000)
        #: per-service structural memo shared by all worker threads;
        #: sits below the report cache — see docs/PERF.md
        self.analysis_cache = analysis_cache if analysis_cache is not None \
            else AnalysisCache(metrics=self.metrics)
        self.default_max_retries = max_retries
        self.default_timeout = default_timeout
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._max_tracked = max_tracked_jobs
        self._ids = iter(range(1, 1 << 62))
        #: (model key, batch) -> :class:`GraphRef`.  Zoo builders are
        #: deterministic, so the first named request for a (model,
        #: batch) builds and fingerprints the graph and every later one,
        #: whatever its configuration, travels by reference: no build,
        #: no graph hash and, in the fleet, no pickled graph.  Content
        #: hashing remains authoritative for ``graph=`` submissions.
        self._graph_refs: Dict[tuple, GraphRef] = {}
        self._graph_refs_lock = threading.Lock()
        self._scheduler = self._make_scheduler(
            runner, workers=workers, queue_size=queue_size,
            backoff_seconds=backoff_seconds)

    def _make_scheduler(self, runner, *, workers: int, queue_size: int,
                        backoff_seconds: float):
        """The thread tier: one priority queue drained by a pool."""
        if runner is None:
            runner = lambda request: default_runner(  # noqa: E731
                request, analysis_cache=self.analysis_cache,
                tracer=self.tracer)
        self.queue = JobQueue(maxsize=queue_size, tracer=self.tracer)
        self.metrics.gauge("queue.depth", lambda: self.queue.depth)
        self.pool = WorkerPool(runner, queue=self.queue,
                               cache=self.cache, metrics=self.metrics,
                               num_workers=workers,
                               backoff_seconds=backoff_seconds,
                               analysis_cache=self.analysis_cache,
                               tracer=self.tracer)
        return self.pool

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ProfilingService":
        self._scheduler.start()
        return self

    def stop(self) -> None:
        self._scheduler.stop()

    def __enter__(self) -> "ProfilingService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        model: Optional[str] = None,
        *,
        graph: Optional[Graph] = None,
        batch_size: int = 1,
        backend: str = "trt-sim",
        platform: str = "a100",
        precision: str = "fp16",
        metric_source: str = MetricSource.PREDICTED,
        priority: int = 0,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> Job:
        """Validate, fingerprint and enqueue one profiling request.

        Exactly one of ``model`` (a zoo key) or ``graph`` must be given.
        Returns the tracking job — possibly an already-finished one (a
        cache hit) or an in-flight job for the same fingerprint.
        Raises :class:`QueueFullError` under backpressure (the sharded
        service raises :class:`ShardBusyError` instead, which carries a
        ``retry_after`` estimate).
        """
        if (model is None) == (graph is None):
            raise ValueError("pass exactly one of model= or graph=")
        backend = backend.strip().lower()
        platform = platform.strip().lower()
        backend_by_name(backend)          # raise early on unknown names
        platform_spec(platform)
        precision = DataType.parse(precision).value
        if metric_source not in (MetricSource.PREDICTED,
                                 MetricSource.MEASURED):
            raise ValueError(f"unknown metric source {metric_source!r}")
        ref = None
        if model is not None:
            name_key = (model.strip().lower(), batch_size)
            with self._graph_refs_lock:
                ref = self._graph_refs.get(name_key)
            if ref is None:
                graph = build_model(name_key[0], batch_size=batch_size)
        if graph is not None and not graph.value_info:
            # worker threads only read the graph; infer shapes up front
            infer_shapes(graph)
        request = ProfileRequest(graph=graph, backend=backend,
                                 platform=platform, precision=precision,
                                 metric_source=metric_source, ref=ref)
        key = request.fingerprint()
        job = Job(
            job_id=f"job-{next(self._ids):06d}",
            key=key,
            request=request,
            priority=priority,
            timeout_seconds=self.default_timeout if timeout is None
            else timeout,
            max_retries=self.default_max_retries if max_retries is None
            else max_retries,
            summary=request.summary(),
        )
        job = self._scheduler.submit(job)
        if model is not None and ref is None:
            # recorded only once the engine has the job (and the thread
            # tier holds its graph), so a sibling's reference resolves
            with self._graph_refs_lock:
                self._graph_refs[name_key] = GraphRef(
                    request.graph_fingerprint(), *name_key, graph.name)
        self._track(job)
        return job

    def profile(self, model: Optional[str] = None, *,
                wait_timeout: Optional[float] = None,
                **kwargs) -> ProfileReport:
        """Submit and block for the report (raises on failure)."""
        return self.submit(model, **kwargs).result(wait_timeout)

    # -- inspection -----------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        job = self.job(job_id)
        return job.cancel() if job is not None else False

    def stats(self) -> Dict[str, Any]:
        snap = self.metrics.snapshot()
        return {
            "cache": self.cache.stats().to_dict(),
            **self._scheduler.stats(),
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
        }

    def stats_text(self) -> str:
        lines = [self.metrics.render_text()]
        for name, value in self.cache.stats().to_dict().items():
            lines.append(f"cache_{name} {value}")
        return "\n".join(lines)

    def metrics_text(self) -> str:
        """Prometheus exposition dump (serve with
        :data:`~repro.obs.metrics.PROMETHEUS_CONTENT_TYPE`)."""
        return self.metrics.render_prometheus()

    def trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job's span timeline, Chrome-trace shaped; None if unknown.

        The ``traceEvents`` array is Perfetto-loadable as saved.
        """
        job = self.job(job_id)
        if job is None:
            return None
        spans = self.tracer.spans_for(job_id)
        return {
            "job_id": job_id,
            "status": job.status,
            "span_count": len(spans),
            "traceEvents": chrome_trace_events(spans),
        }

    # ------------------------------------------------------------------
    def _track(self, job: Job) -> None:
        with self._jobs_lock:
            self._jobs[job.id] = job
            while len(self._jobs) > self._max_tracked:
                self._jobs.pop(next(iter(self._jobs)))


class ShardedProfilingService(ProfilingService):
    """The multi-process fleet: same API, process-level parallelism.

    Validation, fingerprinting, the result cache (in memory and, with
    ``cache_dir``, on disk), job tracking and tracing stay in this
    (parent) process; execution routes through a
    :class:`~repro.service.dispatch.Dispatcher` onto ``processes``
    shard processes.  Placement is a function of the request's graph
    fingerprint, so every configuration of one graph shares one
    shard's private analysis cache, and a sibling that travels by
    reference finds its graph there instead of crossing the pipe.
    Numpy kernels hold the GIL, so this is the tier that actually
    scales profiling throughput with cores — see
    ``benchmarks/test_service_scaleout.py``.

    Differences from the thread-pool service:

    * backpressure is per shard: a full shard queue raises
      :class:`~repro.service.dispatch.ShardBusyError` (HTTP ``429`` +
      ``Retry-After``) instead of :class:`QueueFullError` (``503``);
    * per-attempt timeouts kill the wedged shard process (the
      supervisor respawns it) instead of abandoning a helper thread;
    * a hot graph's sibling configurations queue on one shard, so a
      skewed mix can leave the other shards idle;
    * profiler spans from inside shard processes do not reach the
      parent tracer — ``/trace/<job>`` shows dispatch-level spans only.
    """

    def __init__(
        self,
        *,
        processes: int = 2,
        shard_queue_size: int = 16,
        cache_bytes: int = 64 << 20,
        cache_entries: int = 512,
        cache_dir: Optional[str] = None,
        negative_ttl: float = 300.0,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        default_timeout: Optional[float] = None,
        runner=None,
        max_tracked_jobs: int = 4096,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.processes = processes
        # shards own their (process-private) analysis caches; the
        # parent-side one exists only for facade compatibility, so its
        # per-tier counters, which would always read zero, stay out of
        # the service registry
        super().__init__(workers=processes, queue_size=shard_queue_size,
                         cache_bytes=cache_bytes,
                         cache_entries=cache_entries, cache_dir=cache_dir,
                         negative_ttl=negative_ttl, max_retries=max_retries,
                         backoff_seconds=backoff_seconds,
                         default_timeout=default_timeout, runner=runner,
                         max_tracked_jobs=max_tracked_jobs,
                         analysis_cache=AnalysisCache(), tracer=tracer)

    def _make_scheduler(self, runner, *, workers: int, queue_size: int,
                        backoff_seconds: float):
        """The fleet: ``workers`` shard processes behind a hash ring."""
        self.dispatcher = Dispatcher(
            runner, cache=self.cache, metrics=self.metrics,
            processes=workers, shard_queue_size=queue_size,
            backoff_seconds=backoff_seconds, tracer=self.tracer)
        return self.dispatcher


def make_service(processes: int = 1, **kwargs) -> ProfilingService:
    """Build the right service tier for a worker count.

    ``processes <= 1`` keeps the in-process thread pool (lowest
    latency, shared memory); ``processes > 1`` builds the sharded
    multi-process fleet.  ``kwargs`` are forwarded to the chosen
    constructor.
    """
    if processes > 1:
        return ShardedProfilingService(processes=processes, **kwargs)
    return ProfilingService(**kwargs)


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    server_version = "proof-service/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # pragma: no cover - quiet
        pass

    @property
    def service(self) -> ProfilingService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        url = urlparse(self.path)
        if url.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif url.path == "/stats":
            fmt = parse_qs(url.query).get("format", ["json"])[0]
            if fmt == "text":
                self._send_text(200, self.service.stats_text())
            else:
                self._send_json(200, self.service.stats())
        elif url.path == "/metrics":
            self._send_bytes(200,
                             self.service.metrics_text().encode("utf-8"),
                             PROMETHEUS_CONTENT_TYPE)
        elif url.path.startswith("/trace/"):
            doc = self.service.trace(url.path[len("/trace/"):])
            if doc is None:
                self._send_json(404, {"error": "unknown job"})
            else:
                self._send_json(200, doc)
        elif url.path.startswith("/job/"):
            job = self.service.job(url.path[len("/job/"):])
            if job is None:
                self._send_json(404, {"error": "unknown job"})
            else:
                self._send_json(200, job.to_dict(include_report=True))
        else:
            self._send_json(404, {"error": f"no route {url.path}"})

    def do_POST(self) -> None:
        if urlparse(self.path).path != "/profile":
            self._send_json(404, {"error": f"no route {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"malformed request: {exc}"})
            return
        wait = bool(body.pop("wait", False))
        wait_timeout = body.pop("wait_timeout", 60.0)
        try:
            job = self.service.submit(**body)
        except ShardBusyError as exc:
            # load-shedding: tell the client when the owning shard
            # expects to absorb another request
            retry_after = max(1, int(math.ceil(exc.retry_after)))
            self._send_json(429, {"error": str(exc),
                                  "retry_after": exc.retry_after},
                            headers={"Retry-After": str(retry_after)})
            return
        except QueueFullError as exc:
            self._send_json(503, {"error": str(exc)})
            return
        except (KeyError, ValueError, TypeError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        if not wait:
            self._send_json(202, job.to_dict())
            return
        job.wait(wait_timeout)
        if job.status == JobStatus.SUCCEEDED:
            code = 200
        elif job.status == JobStatus.FAILED:
            code = 500
        else:
            code = 202          # cancelled, or still running at timeout
        self._send_json(code, job.to_dict(include_report=True))

    # ------------------------------------------------------------------
    def _send_json(self, code: int, doc: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_bytes(code, json.dumps(doc).encode("utf-8"),
                         "application/json", headers=headers)

    def _send_text(self, code: int, text: str) -> None:
        self._send_bytes(code, text.encode("utf-8"),
                         "text/plain; charset=utf-8")

    def _send_bytes(self, code: int, payload: bytes, ctype: str,
                    headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)


class ProfilingServer(ThreadingHTTPServer):
    """``http.server`` front-end bound to one :class:`ProfilingService`.

    Pass ``port=0`` to bind an ephemeral port (see :attr:`port`).  The
    caller owns the serve loop::

        with ProfilingService() as service:
            server = ProfilingServer(service, port=8080)
            server.serve_forever()
    """

    daemon_threads = True

    def __init__(self, service: ProfilingService,
                 host: str = "127.0.0.1", port: int = 8080) -> None:
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]
