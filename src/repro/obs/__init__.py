"""``repro.obs`` — tracing and telemetry for the profiler-of-profilers.

Three pieces, all dependency-free and safe to import from any layer:

- :mod:`repro.obs.trace` — a thread-safe :class:`Tracer` with nested
  ``span()`` context managers and a zero-overhead no-op default;
- :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON, JSONL and
  plain-text exporters for collected spans;
- :mod:`repro.obs.metrics` — counters, callback gauges, histograms
  and the :class:`MetricsRegistry` every layer records into.

See docs/OBSERVABILITY.md for the user-facing workflow
(``proof run --trace out.json``, the ``/trace/<job>`` endpoint, the
Prometheus ``/metrics`` dump).
"""
from .export import (chrome_trace_events, format_span_tree,
                     write_chrome_trace, write_jsonl)
from .metrics import (Counter, Histogram, MetricsRegistry,
                      PROMETHEUS_CONTENT_TYPE, default_registry)
from .trace import (NoopTracer, Span, Tracer, get_tracer, set_tracer,
                    use_tracer)

__all__ = [
    "Span", "Tracer", "NoopTracer",
    "get_tracer", "set_tracer", "use_tracer",
    "chrome_trace_events", "write_chrome_trace", "write_jsonl",
    "format_span_tree",
    "Counter", "Histogram", "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE", "default_registry",
    "configure_logging",
]


def configure_logging(level="info", stream=None):
    """Configure the ``repro`` logger hierarchy (the CLI ``--log-level``).

    Idempotent: repeated calls adjust the level without stacking
    handlers.  Returns the root ``repro`` logger.
    """
    import logging
    import sys

    if isinstance(level, str):
        resolved = getattr(logging, level.upper(), None)
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
    else:
        resolved = int(level)
    logger = logging.getLogger("repro")
    logger.setLevel(resolved)
    if not logger.handlers:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)-7s %(name)s: %(message)s"))
        logger.addHandler(handler)
    return logger
