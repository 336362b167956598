"""Metrics primitives and the Prometheus exposition dump."""
import pytest

from repro.obs.metrics import (PROMETHEUS_CONTENT_TYPE, Counter, Histogram,
                               MetricsRegistry, default_registry)


# ----------------------------------------------------------------------
# histogram edge cases (the empty reservoir used to divide by zero)
# ----------------------------------------------------------------------
def test_empty_histogram_summary_is_all_zeros():
    h = Histogram("lat")
    assert h.summary() == {"count": 0, "sum": 0.0, "mean": 0.0,
                           "p50": 0.0, "p95": 0.0, "max": 0.0}


def test_empty_histogram_percentile_is_zero():
    h = Histogram("lat")
    assert h.percentile(50.0) == 0.0
    assert h.percentile(0.0) == 0.0
    assert h.percentile(100.0) == 0.0


def test_percentile_validates_range():
    h = Histogram("lat")
    with pytest.raises(ValueError):
        h.percentile(-1.0)
    with pytest.raises(ValueError):
        h.percentile(100.5)


def test_percentile_of_samples():
    h = Histogram("lat")
    for v in range(1, 101):
        h.observe(float(v))
    assert h.percentile(0.0) == 1.0
    assert h.percentile(100.0) == 100.0
    assert 49.0 <= h.percentile(50.0) <= 52.0


def test_single_sample_histogram():
    h = Histogram("lat")
    h.observe(3.5)
    s = h.summary()
    assert s["count"] == 1 and s["p50"] == 3.5 and s["p95"] == 3.5
    assert s["max"] == 3.5


def test_counter_rejects_negative():
    c = Counter("n")
    with pytest.raises(ValueError):
        c.inc(-1)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_gauge_samples_callback_at_snapshot():
    reg = MetricsRegistry()
    depth = [7.0]
    assert reg.gauge("cb", lambda: depth[0]) is None
    assert reg.snapshot()["gauges"] == {"cb": 7.0}
    depth[0] = 4.0
    assert reg.snapshot()["gauges"] == {"cb": 4.0}


def test_registry_get_or_create_is_stable():
    reg = MetricsRegistry()
    assert reg.counter("c") is reg.counter("c")
    assert reg.histogram("h") is reg.histogram("h")


def test_render_prometheus_format():
    reg = MetricsRegistry()
    reg.counter("jobs.submitted", help_text="Jobs accepted").inc(3)
    reg.gauge("queue.depth", lambda: 2)
    reg.histogram("service.seconds").observe(0.5)
    text = reg.render_prometheus()
    assert text.endswith("\n")
    assert "# HELP jobs_submitted_total Jobs accepted" in text
    assert "# TYPE jobs_submitted_total counter" in text
    assert "jobs_submitted_total 3" in text
    assert "# TYPE queue_depth gauge" in text
    assert "queue_depth 2" in text
    assert "# TYPE service_seconds summary" in text
    assert 'service_seconds{quantile="0.5"} 0.5' in text
    assert "service_seconds_sum 0.5" in text
    assert "service_seconds_count 1" in text


def test_prometheus_content_type():
    assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
    assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


def test_render_text_still_flat():
    reg = MetricsRegistry()
    reg.counter("a.b").inc()
    text = reg.render_text()
    assert "a_b_total 1" in text
    assert "# TYPE" not in text


def test_default_registry_is_a_singleton():
    assert default_registry() is default_registry()

