"""HTTP API tests against a live ``ProfilingServer`` on an ephemeral
port.  A fast synthetic runner keeps these quick; the full profiler
path is covered in ``test_service.py``."""
import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (ProfilingServer, ProfilingService,
                           ShardedProfilingService)
from .conftest import synthetic_report


pytestmark = pytest.mark.usefixtures("fast_backoff")


@pytest.fixture
def server():
    def runner(request):
        return synthetic_report(request.graph.name)

    service = ProfilingService(workers=2, runner=runner)
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


def request(srv, path, body=None, method=None):
    url = f"http://127.0.0.1:{srv.port}{path}"
    data = None if body is None else json.dumps(body).encode("utf-8") \
        if not isinstance(body, bytes) else body
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ----------------------------------------------------------------------
def test_healthz(server):
    status, doc = request(server, "/healthz")
    assert status == 200 and doc == {"status": "ok"}


def test_profile_wait_returns_report(server):
    status, doc = request(server, "/profile",
                          {"model": "mobilenetv2-05", "wait": True})
    assert status == 200
    assert doc["status"] == "succeeded"
    assert doc["report"]["model_name"] == "mobilenetv2-0.5"
    assert doc["request"]["platform"] == "a100"


def test_second_identical_request_hits_cache(server):
    request(server, "/profile", {"model": "mobilenetv2-05", "wait": True})
    status, doc = request(server, "/profile",
                          {"model": "mobilenetv2-05", "wait": True})
    assert status == 200 and doc["cache_hit"] is True
    status, stats = request(server, "/stats")
    assert status == 200
    assert stats["cache"]["hits"] >= 1
    assert stats["counters"]["jobs.cache_hits"] >= 1


def test_async_submit_then_poll_job(server):
    status, doc = request(server, "/profile", {"model": "mobilenetv2-05"})
    assert status == 202
    job_id = doc["id"]
    for _ in range(200):
        status, doc = request(server, f"/job/{job_id}")
        assert status == 200
        if doc["status"] == "succeeded":
            break
    assert doc["status"] == "succeeded"
    assert doc["report"]["model_name"] == "mobilenetv2-0.5"


def test_stats_text_format(server):
    url = f"http://127.0.0.1:{server.port}/stats?format=text"
    with urllib.request.urlopen(url, timeout=30) as resp:
        text = resp.read().decode()
    assert resp.headers["Content-Type"].startswith("text/plain")
    assert "cache_hit_ratio" in text


# -- 4xx paths ---------------------------------------------------------
def test_malformed_json_is_400(server):
    status, doc = request(server, "/profile", body=b"{not json",
                          method="POST")
    assert status == 400 and "malformed" in doc["error"]


def test_non_object_body_is_400(server):
    status, doc = request(server, "/profile", body=[1, 2, 3])
    assert status == 400


def test_unknown_model_is_400(server):
    status, doc = request(server, "/profile", {"model": "alexnet"})
    assert status == 400 and "unknown model" in doc["error"]


def test_unknown_platform_is_400(server):
    status, doc = request(server, "/profile",
                          {"model": "resnet50", "platform": "tpu-v9"})
    assert status == 400 and "unknown platform" in doc["error"]


def test_missing_model_is_400(server):
    status, doc = request(server, "/profile", {"wait": True})
    assert status == 400 and "exactly one of" in doc["error"]


def test_unknown_job_is_404(server):
    status, doc = request(server, "/job/job-999999")
    assert status == 404


def test_unknown_route_is_404(server):
    assert request(server, "/nope")[0] == 404
    assert request(server, "/nope", {"x": 1})[0] == 404


# ----------------------------------------------------------------------
# sharded multi-process fleet behind the same HTTP API
# ----------------------------------------------------------------------
def _fleet_runner(request):
    return synthetic_report(request.graph.name)


def _slow_fleet_runner(request):
    import time
    time.sleep(0.5)
    return synthetic_report(request.graph.name)


@contextlib.contextmanager
def fleet_server(runner=_fleet_runner, processes=2, **kwargs):
    service = ShardedProfilingService(
        processes=processes, runner=runner, **kwargs)
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


def test_fleet_profile_round_trip_and_cache_hit():
    with fleet_server() as srv:
        status, doc = request(srv, "/profile",
                              {"model": "mobilenetv2-05", "wait": True})
        assert status == 200 and doc["status"] == "succeeded"
        assert doc["report"]["model_name"] == "mobilenetv2-0.5"
        status, doc = request(srv, "/profile",
                              {"model": "mobilenetv2-05", "wait": True})
        assert status == 200 and doc["cache_hit"] is True
        status, stats = request(srv, "/stats")
        assert status == 200
        assert stats["workers"] == 2
        assert sorted(stats["shards"]) == ["0", "1"]
        for shard in stats["shards"].values():
            assert shard["alive"] is True


def test_fleet_metrics_expose_per_shard_gauges():
    with fleet_server() as srv:
        request(srv, "/profile", {"model": "resnet34", "wait": True})
        url = f"http://127.0.0.1:{srv.port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            text = resp.read().decode("utf-8")
        for needle in ("shard_0_queue_depth", "shard_1_queue_depth",
                       "shard_0_utilization", "shard_1_utilization",
                       "queue_depth", "shard_utilization"):
            assert needle in text, f"missing {needle} in /metrics"


def test_fleet_parent_holds_no_analysis_cache():
    """Shards keep their own analysis caches; the parent's /stats and
    /metrics show its result cache, queues and shards, and no
    ``analysis_cache`` tier."""
    with fleet_server() as srv:
        assert srv.service.analysis_cache is None
        request(srv, "/profile", {"model": "mobilenetv2-05", "wait": True})
        status, stats = request(srv, "/stats")
        url = f"http://127.0.0.1:{srv.port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as resp:
            text = resp.read().decode("utf-8")
    assert status == 200
    assert sorted(stats) == ["cache", "counters", "gauges", "histograms",
                             "queue", "shards", "workers"]
    assert "analysis_cache" not in json.dumps(stats)
    series = {line.split()[2] for line in text.splitlines()
              if line.startswith("# TYPE ")}
    assert series == {"jobs_submitted_total", "jobs_succeeded_total",
                      "queue_depth", "service_seconds",
                      "shard_0_queue_depth", "shard_0_utilization",
                      "shard_1_queue_depth", "shard_1_utilization",
                      "shard_utilization"}


def test_fleet_busy_shard_returns_429_with_retry_after():
    with fleet_server(runner=_slow_fleet_runner, processes=1,
                      shard_queue_size=1) as srv:
        status, doc = request(srv, "/profile",
                              {"model": "resnet34", "wait": False})
        assert status == 202
        # the single slot is taken: the next distinct request is shed
        url = f"http://127.0.0.1:{srv.port}/profile"
        body = json.dumps({"model": "resnet50", "wait": False})
        req = urllib.request.Request(
            url, data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        exc = excinfo.value
        assert exc.code == 429
        assert int(exc.headers["Retry-After"]) >= 1
        payload = json.loads(exc.read())
        assert payload["retry_after"] > 0
        assert "queue full" in payload["error"]
