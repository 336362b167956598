"""Structural analysis memoization for profiling sweeps.

The structural work behind :meth:`repro.core.profiler.Profiler.profile`
— shape inference, the Analyze Representation (AR), the backend-fused
Optimized Analyze Representation (OAR) and the backend layer mapping —
depends only on the graph's content, not on which profiling run asked
for it.  Sweeps over precisions, batch sizes and backends (the paper's
§3.2–3.3 workflow) therefore repeat it wholesale, and the PR 1 report
cache cannot help: each sweep point is a *different* report.

:class:`AnalysisCache` memoizes those intermediates under
content-addressed keys built from :func:`~repro.ir.fingerprint.graph_fingerprint`:

=========  ==========================================  ===================
tier       key                                         value
=========  ==========================================  ===================
shapes     ``fp``                                      the one held graph,
                                                       shape-inferred
arep       ``fp, precision``                           AR over held graph
mapped     ``fp, backend, spec, precision``            compiled + AR + OAR
                                                       + mapped layers
layer      per-layer fingerprint keys                  cost / class /
                                                       latency records
structure  ``fp, backend, spec`` (precision-free)      donor MappedEntry
=========  ==========================================  ===================

The ``layer`` and ``structure`` tiers live in a
:class:`~repro.analysis.layerstore.LayerStore` — sub-graph-granular
records keyed by the name-free layer fingerprints of
:mod:`repro.ir.fingerprint`, shared across models and sweep configs.
Each cache owns a private store by default; pass ``layer_store=`` to
share one across caches.  ``layer_store=False`` disables the sub-graph
tiers: every record is computed directly and no structure is donated.
That is the store-free reference path, which
``Profiler(analysis_cache=False)`` runs through a fresh, private cache
per profile.  The cache and the store are both a
:class:`~repro.analysis.layerstore.TieredLRU`: every tier has its own
capacity — the layer tier needs tens of thousands of slots where a
whole-graph tier needs ``max_entries`` (128) — and its own eviction
counter.

The ``mapped`` tier stores the *post-mapping* OAR — backend layer
mapping mutates the OAR (``set_fused_op``), so the safely shareable
artifact is the finished state, keyed by everything that shaped it.
Entries carry a ``memo`` dict for caller-side derived values (the
profiler parks its per-layer cost prototypes there) so this module
stays independent of :mod:`repro.core`.

Sharing a cached AR/OAR across profiler calls is sound because both are
read-only after mapping; sharing across *graph objects* is sound
because equal fingerprints imply equal structure and the analysis never
reads materialized weight values.  The cache therefore holds exactly
one graph per fingerprint: the ``shapes`` tier keeps the first graph
seen (a later request without a tensor table gets a copy of its
table), every precision's AR is built over that graph, and a mapped
entry's compiled model — built or assembled — sits on its AR's graph.
No tier refers to a request's own graph unless it was the first, so a
request graph is freed by reference counting once its caller drops it.
All tiers are guarded by one lock; concurrent misses on the same key
may build twice (last write wins with an equivalent value) but never
block each other on dict access, and the first graph seeded for a
fingerprint is never replaced.

:meth:`mapped_entry` additionally takes an ``assemble`` callback: on a
``mapped`` miss whose precision-free *structure* is already known (a
sibling precision built it, this run or — via a shared store — another
cache's), the caller may assemble a new entry from the donor's layer
records instead of re-running compile + mapping.  The profiler supplies
this for backends whose layer structure is precision-invariant.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..ir.fingerprint import graph_fingerprint
from ..ir.graph import Graph
from ..ir.shape_inference import infer_shapes
from ..obs.metrics import MetricsRegistry, default_registry
from .arep import AnalyzeRepresentation
from .layerstore import LayerStore, TieredLRU
from .oarep import OptimizedAnalyzeRepresentation

__all__ = ["AnalysisCache", "MappedEntry", "shared_analysis_cache"]


@dataclass
class MappedEntry:
    """Everything the profiler derives structurally for one backend."""

    compiled: Any
    arep: AnalyzeRepresentation
    oar: OptimizedAnalyzeRepresentation
    mapped: List[Any]
    #: caller-side derived values keyed by the caller (kept generic so
    #: the analysis layer does not import profiler types)
    memo: Dict[Any, Any] = field(default_factory=dict)


class AnalysisCache(TieredLRU):
    """LRU memo for shape inference, AR/OAR, mapped layers and —
    through its :class:`LayerStore` — per-layer analysis records.

    Each whole-graph tier holds up to ``max_entries`` entries;
    ``len(cache)`` counts them, and the store keeps its own count
    (``len(cache.layer_store)``).
    """

    #: whole-graph tiers stored in this cache itself
    GRAPH_TIERS = ("shapes", "arep", "mapped")
    #: every tier this cache reports stats for (the last two are
    #: delegated to the layer store)
    TIERS = GRAPH_TIERS + LayerStore.TIERS

    def __init__(self, max_entries: int = 128,
                 metrics: Optional[MetricsRegistry] = None,
                 layer_store: Union["LayerStore", bool, None] = None) -> None:
        registry = metrics if metrics is not None else default_registry()
        super().__init__(dict.fromkeys(self.GRAPH_TIERS, max_entries),
                         registry)
        if layer_store is None or layer_store is True:
            layer_store = LayerStore(metrics=registry)
        #: sub-graph-granular record store (``layer``/``structure``
        #: tiers); private by default, shareable across caches, or
        #: ``False`` for the store-free reference path
        self.layer_store: Optional[LayerStore] = \
            None if layer_store is False else layer_store

    # ------------------------------------------------------------------
    # tiers
    # ------------------------------------------------------------------
    def ensure_shapes(self, graph: Graph) -> str:
        """Fill ``graph.value_info`` (cached per fingerprint); return fp."""
        return self._held(graph)[0]

    def _held(self, graph: Graph) -> Tuple[str, Graph]:
        """Fingerprint of ``graph`` and the one graph held for it.

        The ``shapes`` tier keeps the first graph seen per fingerprint,
        shape-inferred.  A hit gives ``graph`` without a tensor table a
        copy of the held one; :class:`~repro.ir.tensor.TensorInfo` is
        immutable, so the infos themselves are shared.
        """
        fp = graph_fingerprint(graph)
        hit, held = self._get("shapes", (fp,))
        if hit:
            if not graph.value_info:
                graph.value_info = dict(held.value_info)
            return fp, held
        if not graph.value_info:
            infer_shapes(graph)
        with self._lock:
            # a concurrent miss may have seeded the tier meanwhile: keep
            # the first graph, so every tier refers to one per fp
            held = self._tiers["shapes"].get((fp,))
            if held is None:
                held = self._put("shapes", (fp,), graph)
        return fp, held

    def held_graph(self, fp: str) -> Optional[Graph]:
        """The graph the ``shapes`` tier holds for ``fp``, or None.

        A peek: it neither counts as a lookup nor refreshes recency,
        since the profile that follows looks the graph up itself.
        """
        with self._lock:
            return self._tiers["shapes"].get((fp,))

    def arep(self, graph: Graph, precision: Any) -> AnalyzeRepresentation:
        """AR for ``graph`` at ``precision`` (cached per fp+precision).

        Every precision's AR is built over the graph the ``shapes``
        tier holds for the fingerprint, not over ``graph`` itself, so a
        request graph is never kept alive by this cache.  AReps built
        here are wired to this cache's layer store, so their per-op
        cost/class lookups resolve against the shared cross-model
        records.
        """
        fp, held = self._held(graph)
        key = (fp, getattr(precision, "value", precision))

        def build() -> AnalyzeRepresentation:
            arep = AnalyzeRepresentation(held, precision)
            arep.layer_store = self.layer_store
            return arep

        return self._get_or_build("arep", key, build)

    def mapped_entry(self, graph: Graph, backend_key: str, spec_key: str,
                     precision: Any,
                     build: Callable[[AnalyzeRepresentation], MappedEntry],
                     assemble: Optional[Callable[
                         [MappedEntry, AnalyzeRepresentation],
                         Optional[MappedEntry]]] = None,
                     ) -> MappedEntry:
        """Post-mapping entry for one (graph, backend, spec, precision).

        ``build`` receives the cached AR and returns the finished
        :class:`MappedEntry`; it runs only on a miss.

        ``assemble``, when given, is tried first on a miss: if the
        precision-free *structure* tier holds a donor entry for
        ``(fp, backend, spec)`` (built by a sibling precision), the
        callback receives it plus the cached AR and may assemble the
        new entry from shared layer records instead of re-running
        compile + mapping.  Returning ``None`` falls back to ``build``.
        """
        fp = self.ensure_shapes(graph)
        key = (fp, backend_key, spec_key, getattr(precision, "value", precision))
        hit, entry = self._get("mapped", key)
        if hit:
            return entry
        store = self.layer_store
        structure_key = (fp, backend_key, spec_key)
        if store is not None and assemble is not None:
            donor_hit, donor = store.structure(structure_key)
            if donor_hit:
                entry = assemble(donor, self.arep(graph, precision))
                if entry is not None:
                    return self._put("mapped", key, entry)
        entry = build(self.arep(graph, precision))
        if store is not None:
            store.put_structure(structure_key, entry)
        return self._put("mapped", key, entry)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier ``{"hits", "misses", "evictions"}`` counts, layer
        and structure tiers included (zeros when the store is off)."""
        out = super().stats()
        if self.layer_store is not None:
            out.update(self.layer_store.stats())
        else:
            out.update({t: {"hits": 0, "misses": 0, "evictions": 0}
                        for t in LayerStore.TIERS})
        return out

    def hit_rates(self) -> Dict[str, float]:
        """Per-tier hit rate in [0, 1]; 0.0 for untouched tiers."""
        return {t: (s["hits"] / (s["hits"] + s["misses"])
                    if s["hits"] + s["misses"] else 0.0)
                for t, s in self.stats().items()}

    def clear(self) -> None:
        """Drop all entries and zero the counts (the attached layer
        store included — callers sharing a store across caches should
        clear at the store level deliberately, not through a cache)."""
        super().clear()
        if self.layer_store is not None:
            self.layer_store.clear()


_shared: Optional[AnalysisCache] = None
_shared_lock = threading.Lock()


def shared_analysis_cache() -> AnalysisCache:
    """Process-wide default cache (what ``analysis_cache=True`` resolves to)."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = AnalysisCache()
        return _shared
