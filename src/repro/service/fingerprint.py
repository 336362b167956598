"""Request fingerprints: the service's cache keys.

A profiling result is determined by the graph *content* and the
profiling configuration — never by who asked, when, or which worker ran
it.  The request fingerprint therefore hashes
:func:`repro.ir.fingerprint.graph_fingerprint` together with the
normalized (backend, platform, precision, metric-source) tuple; batch
size needs no separate field because it is part of the graph's input
shapes.  A version field keeps keys from aliasing across format
changes.

A request carries its graph in one of two forms.  The *graph* form
holds the :class:`~repro.ir.graph.Graph` itself.  The *reference* form
holds a :class:`GraphRef` — the fingerprint, zoo key, batch size and
name of a zoo graph the service has already built — so sibling
configurations of one ``(model, batch)`` neither rebuild nor re-hash
it, and the fleet ships a few strings instead of a pickled graph.
Both forms give the same :meth:`ProfileRequest.fingerprint` and
:meth:`ProfileRequest.summary`.  :func:`resolve_request` turns a
reference back into a graph inside the executing engine.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional

from ..core.report import MetricSource
from ..ir.fingerprint import graph_fingerprint
from ..ir.graph import Graph
from ..models.registry import build_model

__all__ = ["ProfileRequest", "GraphRef", "GraphMismatchError",
           "resolve_request", "request_fingerprint", "CACHE_KEY_VERSION"]

CACHE_KEY_VERSION = 1


class GraphRef(NamedTuple):
    """A zoo graph by reference: enough to key, route and rebuild it."""

    fingerprint: str
    #: zoo registry key and batch size, for a rebuild
    model: str
    batch_size: int
    #: the graph's own name (``summary()["model"]``)
    name: str


class GraphMismatchError(RuntimeError):
    """A rebuilt zoo graph's fingerprint differs from its reference."""


@dataclass(frozen=True)
class ProfileRequest:
    """A fully resolved profiling request (names already validated).

    Exactly one of ``graph`` and ``ref`` is set, except after
    :func:`resolve_request`, which sets ``graph`` and keeps ``ref``.
    """

    graph: Optional[Graph]
    backend: str
    platform: str
    precision: str
    metric_source: str = MetricSource.PREDICTED
    ref: Optional[GraphRef] = None

    def graph_fingerprint(self) -> str:
        """The graph's content hash (memoized on a held graph)."""
        if self.graph is None:
            return self.ref.fingerprint
        return graph_fingerprint(self.graph)

    def fingerprint(self) -> str:
        """SHA-256 hex key identifying (graph content, profiling config)."""
        doc = {
            "version": CACHE_KEY_VERSION,
            "graph": self.graph_fingerprint(),
            "backend": self.backend,
            "platform": self.platform,
            "precision": self.precision,
            "metric_source": self.metric_source,
        }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> Dict[str, Any]:
        """The JSON-safe request description shown in job documents."""
        if self.graph is None:
            name, batch = self.ref.name, self.ref.batch_size
        else:
            name, batch = self.graph.name, None
            if self.graph.inputs and self.graph.inputs[0].shape:
                batch = int(self.graph.inputs[0].shape[0])
        return {
            "model": name,
            "backend": self.backend,
            "platform": self.platform,
            "precision": self.precision,
            "metric_source": self.metric_source,
            "batch_size": batch,
        }


def resolve_request(request: Any, analysis_cache=None) -> Any:
    """The request with its graph set: the engine-side half of a
    reference.

    A graph-form request (or any other object) passes through.  A
    reference resolves to the graph ``analysis_cache`` holds for its
    fingerprint; failing that, the zoo graph is rebuilt and must hash to
    the referenced fingerprint — a mismatch raises
    :class:`GraphMismatchError` rather than profile another graph under
    the request's key.
    """
    if not isinstance(request, ProfileRequest) or request.graph is not None:
        return request
    ref = request.ref
    graph = None if analysis_cache is None \
        else analysis_cache.held_graph(ref.fingerprint)
    if graph is None:
        graph = build_model(ref.model, batch_size=ref.batch_size)
        if graph_fingerprint(graph) != ref.fingerprint:
            raise GraphMismatchError(
                f"rebuilt {ref.model} (batch {ref.batch_size}) does not "
                f"match fingerprint {ref.fingerprint[:16]}")
    return dataclasses.replace(request, graph=graph)


def request_fingerprint(graph: Graph, *, backend: str, platform: str,
                        precision: str, metric_source: str) -> str:
    """SHA-256 hex key identifying (graph content, profiling config)."""
    return ProfileRequest(graph, backend, platform, precision,
                          metric_source).fingerprint()
