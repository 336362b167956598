"""Library-wide metrics: counters, gauges, histograms, one registry.

They live in :mod:`repro.obs` rather than the service layer so library
code — the analysis cache, the profiler, backends — can record metrics
without importing the service layer.
Everything an instrumented component observes about itself flows
through a :class:`MetricsRegistry`; the registry renders a JSON
snapshot, a flat text dump, and a Prometheus exposition-format dump
with ``# HELP`` / ``# TYPE`` metadata.

:func:`default_registry` is the process-wide registry library code
falls back to; services construct their own so per-service numbers
stay isolated.
"""
from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["Counter", "Histogram", "MetricsRegistry",
           "PROMETHEUS_CONTENT_TYPE", "default_registry"]

#: the content type Prometheus scrapers expect for the text format
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """Running count/sum plus a bounded reservoir of recent samples.

    Exact percentiles over the full stream are not needed for a serving
    dashboard; the reservoir keeps the last ``window`` observations and
    the percentiles describe recent behaviour.  All summary statistics
    are defined (as 0.0) on an empty reservoir.
    """

    __slots__ = ("name", "_count", "_sum", "_max", "_samples", "_lock")

    def __init__(self, name: str, window: int = 1024) -> None:
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._samples: Deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            self._max = max(self._max, value)
            self._samples.append(value)

    @staticmethod
    def _percentile(ordered: List[float], p: float) -> float:
        if not ordered:
            return 0.0
        idx = min(len(ordered) - 1, max(0, int(round(
            p / 100.0 * (len(ordered) - 1)))))
        return ordered[idx]

    def percentile(self, p: float) -> float:
        """The p-th percentile of the reservoir; 0.0 when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        with self._lock:
            ordered = sorted(self._samples)
        return self._percentile(ordered, p)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            ordered = sorted(self._samples)
            count, total, peak = self._count, self._sum, self._max
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "p50": self._percentile(ordered, 50.0),
            "p95": self._percentile(ordered, 95.0),
            "max": peak,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms, get-or-create, thread-safe.

    A gauge is a callback, registered with ``gauge(name, fn)`` and
    sampled at snapshot time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._help: Dict[str, str] = {}

    def counter(self, name: str, help_text: Optional[str] = None) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            if help_text:
                self._help[name] = help_text
            return self._counters[name]

    def histogram(self, name: str, window: int = 1024,
                  help_text: Optional[str] = None) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, window)
            if help_text:
                self._help[name] = help_text
            return self._histograms[name]

    def gauge(self, name: str, fn: Callable[[], float],
              help_text: Optional[str] = None) -> None:
        """Register ``fn`` as gauge ``name``, sampled at snapshot time."""
        with self._lock:
            if help_text:
                self._help[name] = help_text
            self._gauges[name] = fn

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(histograms.items())},
            "gauges": {n: g() for n, g in sorted(gauges.items())},
        }

    def render_text(self) -> str:
        """Flat ``name value`` lines (legacy text dump)."""
        snap = self.snapshot()
        lines: List[str] = []
        for name, value in snap["counters"].items():
            lines.append(f"{_flat(name)}_total {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{_flat(name)} {value}")
        for name, summary in snap["histograms"].items():
            base = _flat(name)
            for stat in ("count", "sum", "mean", "p50", "p95", "max"):
                lines.append(f"{base}_{stat} {summary[stat]}")
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """Prometheus exposition format with ``# HELP``/``# TYPE`` lines.

        Counters expose as ``<name>_total``, callback gauges as
        gauges, histograms as summaries (quantiles from the
        reservoir).  Serve with :data:`PROMETHEUS_CONTENT_TYPE`.
        """
        snap = self.snapshot()
        lines: List[str] = []

        def header(raw: str, exposed: str, kind: str, default: str) -> None:
            lines.append(f"# HELP {exposed} {self._help.get(raw, default)}")
            lines.append(f"# TYPE {exposed} {kind}")

        for name, value in snap["counters"].items():
            exposed = _flat(name) + "_total"
            header(name, exposed, "counter", f"Counter {name}")
            lines.append(f"{exposed} {value}")
        for name, value in snap["gauges"].items():
            exposed = _flat(name)
            header(name, exposed, "gauge", f"Gauge {name}")
            lines.append(f"{exposed} {value}")
        for name, summary in snap["histograms"].items():
            exposed = _flat(name)
            header(name, exposed, "summary", f"Histogram {name}")
            lines.append(f'{exposed}{{quantile="0.5"}} {summary["p50"]}')
            lines.append(f'{exposed}{{quantile="0.95"}} {summary["p95"]}')
            lines.append(f"{exposed}_sum {summary['sum']}")
            lines.append(f"{exposed}_count {summary['count']}")
        return "\n".join(lines) + "\n"


def _flat(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


_default: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """Process-wide registry for library-level metrics."""
    global _default
    with _default_lock:
        if _default is None:
            _default = MetricsRegistry()
        return _default
