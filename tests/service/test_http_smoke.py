"""HTTP smoke over both service tiers with the real profiler.

``make_service(processes=1)`` is the thread tier and
``make_service(processes=2)`` a real two-process shard fleet.  Each
serves a cold profile, a warm cache hit and ``queue_depth`` on
``/metrics``; the fleet also shows its per-shard gauges, two live
shards in ``/stats`` and a clean stop.  See docs/SERVICE.md.
"""
import json
import threading
import urllib.request

import pytest

from repro.service import ProfilingServer, make_service

SHARD_GAUGES = ("shard_0_queue_depth", "shard_1_queue_depth",
                "shard_0_utilization", "shard_1_utilization",
                "shard_utilization")


@pytest.fixture(params=[1, 2], ids=["threads", "fleet"])
def served(request):
    service = make_service(processes=request.param).start()
    srv = ProfilingServer(service, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, f"http://127.0.0.1:{srv.port}", request.param
    finally:
        srv.shutdown()
        srv.server_close()
        service.stop()


def call(base, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, resp.headers.get_content_type(), resp.read()


def test_cold_then_warm_profile_and_metrics(served):
    service, base, processes = served
    request = {"model": "mobilenetv2-05", "wait": True}
    status, _, raw = call(base, "/profile", request)
    cold = json.loads(raw)
    assert status == 200 and cold["status"] == "succeeded", cold
    status, _, raw = call(base, "/profile", request)
    warm = json.loads(raw)
    assert status == 200 and warm["cache_hit"] is True, warm
    _, ctype, raw = call(base, "/metrics")
    assert ctype == "text/plain"
    text = raw.decode()
    assert "queue_depth" in text
    if processes == 1:
        assert not hasattr(service, "dispatcher")
        return
    assert service.processes == 2
    for needle in SHARD_GAUGES:
        assert needle in text, f"missing {needle} in /metrics"
    _, _, raw = call(base, "/stats")
    shards = json.loads(raw)["shards"]
    assert sorted(shards) == ["0", "1"], sorted(shards)
    assert all(s["alive"] for s in shards.values()), shards
    service.stop()
    assert not any(h.is_alive() for h in service.dispatcher.shards.values())
