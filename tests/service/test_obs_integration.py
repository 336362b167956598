"""Service-layer observability: job traces across threads, the
``/metrics`` and ``/trace/<id>`` endpoints."""
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.service import ProfilingServer, ProfilingService
from .conftest import synthetic_report


pytestmark = pytest.mark.usefixtures("fast_backoff")


def make_service(runner=None):
    if runner is None:
        def runner(request):
            return synthetic_report(request.graph.name)
    return ProfilingService(workers=2, runner=runner)


# ----------------------------------------------------------------------
# cross-thread trace correlation
# ----------------------------------------------------------------------
def test_job_spans_share_the_job_id_trace():
    with make_service() as service:
        job = service.submit("mobilenetv2-05")
        job.wait(timeout=30)
        spans = service.tracer.spans_for(job.id)
    names = {s.name for s in spans}
    assert {"job.submit", "queue.put", "queue.get", "job.execute",
            "job.attempt", "cache.store"} <= names
    assert all(s.trace_id == job.id for s in spans)
    # submit happens on the caller thread, the attempt on a worker —
    # one trace spans both
    submit = next(s for s in spans if s.name == "job.submit")
    attempt = next(s for s in spans if s.name == "job.attempt")
    assert submit.thread_id == threading.get_ident()
    assert attempt.thread_id != submit.thread_id
    execute = next(s for s in spans if s.name == "job.execute")
    assert execute.attributes["outcome"] == "succeeded"
    assert attempt.parent_id == execute.span_id


def test_submit_outcomes_are_annotated():
    with make_service() as service:
        first = service.submit("mobilenetv2-05")
        first.wait(timeout=30)
        second = service.submit("mobilenetv2-05")  # warm: result cached
        outcomes = [s.attributes.get("outcome")
                    for s in service.tracer.spans()
                    if s.name == "job.submit"]
    assert outcomes[0] == "enqueued"
    assert second.cache_hit


def test_failed_attempts_record_error_spans():
    def runner(request):
        raise RuntimeError("synthetic failure")

    with make_service(runner=runner) as service:
        job = service.submit("mobilenetv2-05", max_retries=1)
        job.wait(timeout=30)
        assert job.status == "failed"
        spans = service.tracer.spans_for(job.id)
    attempts = [s for s in spans if s.name == "job.attempt"]
    assert len(attempts) == 2  # first try + one retry
    assert all(s.error for s in attempts)
    assert all(s.attributes["exception"] == "RuntimeError"
               for s in attempts)
    execute = next(s for s in spans if s.name == "job.execute")
    assert execute.attributes["outcome"] == "failed"
    assert "synthetic failure" in execute.attributes["error"]


def test_timed_attempt_body_links_to_the_attempt_span():
    with make_service() as service:
        job = service.submit("mobilenetv2-05", timeout=30.0)
        job.wait(timeout=30)
        spans = service.tracer.spans_for(job.id)
    attempt = next(s for s in spans if s.name == "job.attempt")
    body = next(s for s in spans if s.name == "job.attempt.body")
    # the body runs on a helper thread yet stays inside the job trace
    assert body.parent_id == attempt.span_id
    assert body.thread_id != attempt.thread_id


# ----------------------------------------------------------------------
# service-level accessors
# ----------------------------------------------------------------------
def test_trace_accessor_returns_chrome_events():
    with make_service() as service:
        job = service.submit("mobilenetv2-05")
        job.wait(timeout=30)
        doc = service.trace(job.id)
        assert service.trace("job-999999") is None
    assert doc["job_id"] == job.id
    assert doc["status"] == "succeeded"
    assert doc["span_count"] > 0
    for evt in doc["traceEvents"]:
        assert "ph" in evt and "ts" in evt and "name" in evt


def test_metrics_text_is_prometheus_shaped():
    with make_service() as service:
        service.profile("mobilenetv2-05", wait_timeout=30)
        text = service.metrics_text()
    assert "# TYPE jobs_submitted_total counter" in text
    assert "# TYPE queue_depth gauge" in text
    assert "jobs_submitted_total 1" in text


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
@pytest.fixture
def server():
    service = make_service()
    service.start()
    srv = ProfilingServer(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        service.stop()


def _get(srv, path):
    url = f"http://127.0.0.1:{srv.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.headers.get("Content-Type"), \
                resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), exc.read()


def test_metrics_endpoint_serves_prometheus(server):
    status, ctype, body = _get(server, "/metrics")
    assert status == 200
    assert ctype == PROMETHEUS_CONTENT_TYPE
    assert b"# TYPE" in body and b"# HELP" in body


def test_trace_endpoint_serves_job_timeline(server):
    job = server.service.submit("mobilenetv2-05")
    job.wait(timeout=30)
    status, ctype, body = _get(server, f"/trace/{job.id}")
    assert status == 200
    doc = json.loads(body)
    assert doc["job_id"] == job.id
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    assert all("ph" in e and "ts" in e for e in doc["traceEvents"])


def test_trace_endpoint_404s_unknown_jobs(server):
    status, _, body = _get(server, "/trace/job-999999")
    assert status == 404
    assert json.loads(body)["error"]
