"""Hierarchical tracing for the profiler-of-profilers.

PRoof's pipeline computes a bidirectional full-stack mapping (§3.3) yet
was itself unobservable: ``Profiler.profile`` ran compile → AR → OAR →
layer mapping → counter replay → roofline with no timing breakdown.
This module provides the missing layer — XSP-style correlated spans
across every level of *our own* stack:

* :class:`Tracer` collects finished :class:`Span` records into a
  bounded, thread-safe buffer.  ``tracer.span("compile", model=...)``
  is a context manager; spans nest per thread (a thread-local stack),
  carry wall time, attributes, parent/child links and a ``trace_id``
  that groups one logical operation (a profiling run, a service job)
  across threads.
* :class:`NoopTracer` is the process-wide default: tracing must be
  zero-impact when off, so every instrumented call site costs one
  attribute read and a no-op context manager until someone installs a
  real tracer with :func:`set_tracer` / :func:`use_tracer`.

Cross-thread spans (the service worker pool) pass ``parent=`` or
``trace_id=`` explicitly — the thread-local stack only links spans
opened on the same thread.  Exporters (Chrome ``trace_events`` JSON,
JSONL, text trees) live in :mod:`repro.obs.export`.
"""
from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional, Union

__all__ = ["Span", "Tracer", "NoopTracer", "get_tracer", "set_tracer",
           "use_tracer"]

#: id of one logical operation; service jobs use their string job id
TraceId = Union[int, str]


class Span:
    """One timed, attributed region of work.

    Spans are created by :meth:`Tracer.span` and finished by leaving
    the ``with`` block.  A span that exits through an exception records
    ``error=True`` plus the exception type, and re-raises.
    """

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "attributes",
                 "kind", "start_us", "duration_us", "thread_id",
                 "thread_name", "error", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], trace_id: Optional[TraceId],
                 attributes: Dict[str, Any], kind: str = "span") -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attributes = attributes
        self.kind = kind
        self.start_us: float = 0.0
        self.duration_us: Optional[float] = None
        self.thread_id: int = 0
        self.thread_name: str = ""
        self.error = False
        self._t0: float = 0.0

    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> "Span":
        """Attach/overwrite one attribute; chainable."""
        self.attributes[key] = value
        return self

    @property
    def duration_seconds(self) -> float:
        return (self.duration_us or 0.0) / 1e6

    def __enter__(self) -> "Span":
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self._tracer._push(self)
        self._t0 = time.perf_counter()
        self.start_us = (self._t0 - self._tracer._epoch) * 1e6
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_us = (time.perf_counter() - self._t0) * 1e6
        if exc_type is not None:
            self.error = True
            self.attributes.setdefault("exception", exc_type.__name__)
        self._tracer._pop(self)
        return False

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "kind": self.kind,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "error": self.error,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = f"{self.duration_us / 1e3:.3f}ms" \
            if self.duration_us is not None else "open"
        return f"Span({self.name!r}, {dur}, trace={self.trace_id!r})"


class Tracer:
    """Thread-safe span collector with per-thread nesting.

    ``max_spans`` bounds memory: the buffer keeps the most recent spans
    (a ring), which is what a long-running service wants.  ``plan_ops``
    opts every :meth:`repro.ir.plan.ExecutionPlan.run` into per-operator
    spans.
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000,
                 plan_ops: bool = False) -> None:
        self.max_spans = max_spans
        self.plan_ops = plan_ops
        self._epoch = time.perf_counter()
        #: wall-clock time of the tracer's t=0, for correlating traces
        self.epoch_wall = time.time()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._finished: Deque[Span] = deque(maxlen=max_spans)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    def span(self, name: str, parent: Optional[Span] = None,
             trace_id: Optional[TraceId] = None, **attributes: Any) -> Span:
        """New span; enter it with ``with``.

        ``parent`` links explicitly (required across threads); without
        it the span nests under the current thread's innermost open
        span.  ``trace_id`` defaults to the parent's, else the span's
        own id (a new root trace).
        """
        return Span(self, name, next(self._ids),
                    parent.span_id if parent is not None else None,
                    trace_id if trace_id is not None
                    else (parent.trace_id if parent is not None else None),
                    attributes)

    def event(self, name: str, trace_id: Optional[TraceId] = None,
              **attributes: Any) -> Span:
        """Record an instantaneous event (a zero-duration span)."""
        span = Span(self, name, next(self._ids), None, trace_id,
                    attributes, kind="event")
        thread = threading.current_thread()
        span.thread_id = thread.ident or 0
        span.thread_name = thread.name
        stack = self._stack()
        if stack:
            span.parent_id = stack[-1].span_id
            if span.trace_id is None:
                span.trace_id = stack[-1].trace_id
        if span.trace_id is None:
            span.trace_id = span.span_id
        span.start_us = (time.perf_counter() - self._epoch) * 1e6
        span.duration_us = 0.0
        with self._lock:
            self._finished.append(span)
        return span

    # ------------------------------------------------------------------
    # stack plumbing (called by Span)
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if span.parent_id is None and stack:
            top = stack[-1]
            span.parent_id = top.span_id
            if span.trace_id is None:
                span.trace_id = top.trace_id
        if span.trace_id is None:
            span.trace_id = span.span_id
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order close (span moved across threads): best effort
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self._finished.append(span)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def spans(self) -> List[Span]:
        """Snapshot of finished spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def spans_for(self, trace_id: TraceId) -> List[Span]:
        return [s for s in self.spans() if s.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


class _NoopSpan:
    """Shared do-nothing span; every call site cost is one method call."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The zero-overhead default: records nothing, allocates nothing."""

    enabled = False
    plan_ops = False

    def span(self, name: str, parent: Optional[Span] = None,
             trace_id: Optional[TraceId] = None,
             **attributes: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def event(self, name: str, trace_id: Optional[TraceId] = None,
              **attributes: Any) -> None:
        return None

    def current_span(self) -> None:
        return None

    def spans(self) -> List[Span]:
        return []

    def spans_for(self, trace_id: TraceId) -> List[Span]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


_NOOP_TRACER = NoopTracer()
_current: Union[Tracer, NoopTracer] = _NOOP_TRACER


def get_tracer() -> Union[Tracer, NoopTracer]:
    """The process-wide current tracer (a no-op unless installed)."""
    return _current


def set_tracer(tracer: Optional[Union[Tracer, NoopTracer]]
               ) -> Union[Tracer, NoopTracer]:
    """Install ``tracer`` globally; ``None`` restores the no-op default."""
    global _current
    _current = tracer if tracer is not None else _NOOP_TRACER
    return _current


@contextmanager
def use_tracer(tracer: Union[Tracer, NoopTracer]) -> Iterator[
        Union[Tracer, NoopTracer]]:
    """Temporarily install ``tracer`` for the duration of the block."""
    previous = _current
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
