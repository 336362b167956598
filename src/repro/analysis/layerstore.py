"""Cross-model, cross-config layer store (the sub-graph cache tiers).

The whole-graph tiers of :class:`~repro.analysis.cache.AnalysisCache`
key entire graphs, so a model zoo shares nothing there even though
MobileNetV2 and EfficientNet repeat near-identical conv blocks.
Following the redundancy-aware profiling idea (Dooly, see PAPERS.md),
the layer store memoizes analysis *records* at sub-graph granularity
under the name-free fingerprints of :mod:`repro.ir.fingerprint`:

``layer`` tier — one record per (kind, layer fingerprint, …):

=========  ==========================================  ================
kind       key tail                                    value
=========  ==========================================  ================
cost       ``fingerprint, precision``                  :class:`OpCost`
class      ``fingerprint``                             :class:`OpClass`
latency    ``fingerprint, spec key, precision``        seconds (float)
=========  ==========================================  ================

``structure`` tier — one finished
:class:`~repro.analysis.cache.MappedEntry` per
``(graph fingerprint, backend, spec)``, *any* precision, and the only
whole-model memo on the profile path: the fusion plan, backend layer
list and layer mapping of the simulated runtimes do not depend on
precision, so the first profile of a structure donates it, an exact
repeat reuses it as is, and every other precision re-times its layers
from ``latency`` records instead of re-running compile + mapping (the
profiler's *assemble* path; ``check_supported`` still runs per
precision, so precision-specific rejections like TensorRT's int8
Stable-Diffusion failure are preserved).

Sharing a record across graphs is sound because the fingerprint covers
everything the record's computation reads — op types, attributes,
shapes, dtypes, initializer-ness, fold markers, member order and
boundary wiring — so equal keys imply bit-identical values no matter
which graph computed them first.

A store is private to its owning :class:`AnalysisCache` by default;
passing one explicitly (``AnalysisCache(layer_store=...)``) shares
layer records across caches: the "warm store, cold cache"
configuration.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.metrics import MetricsRegistry, default_registry

__all__ = ["LayerStore", "TieredLRU"]

#: the layer tier holds per-layer records across a whole model zoo —
#: a few hundred layers per model times kinds times sweep axes — so its
#: default capacity is far beyond the whole-graph tiers' 128
DEFAULT_MAX_RECORDS = 65536

#: structures are whole compiled models; one per (graph, backend, spec)
DEFAULT_MAX_STRUCTURES = 256


class TieredLRU:
    """Named LRU tiers under one lock, each with its own capacity.

    Hits, misses and evictions are counted in :meth:`stats` and in the
    ``analysis_cache.<tier>.*`` counters of ``metrics`` (the process
    registry by default).  Values are built outside the lock, so
    concurrent misses on a key may build twice (last write wins with an
    equal value) but never serialize unrelated lookups.
    """

    def __init__(self, caps: Dict[str, int],
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._caps = dict(caps)
        self._lock = threading.RLock()
        self._tiers: Dict[str, "OrderedDict[Tuple, Any]"] = {
            t: OrderedDict() for t in caps}
        self._hits = dict.fromkeys(caps, 0)
        self._misses = dict.fromkeys(caps, 0)
        self._evictions = dict.fromkeys(caps, 0)
        registry = metrics if metrics is not None else default_registry()
        self._counters = {
            (t, kind): registry.counter(f"analysis_cache.{t}.{kind}")
            for t in caps for kind in ("hits", "misses", "evictions")}

    def _get(self, tier: str, key: Tuple) -> Tuple[bool, Any]:
        with self._lock:
            entries = self._tiers[tier]
            if key in entries:
                entries.move_to_end(key)
                self._hits[tier] += 1
                self._counters[(tier, "hits")].inc()
                return True, entries[key]
            self._misses[tier] += 1
            self._counters[(tier, "misses")].inc()
            return False, None

    def _put(self, tier: str, key: Tuple, value: Any) -> Any:
        with self._lock:
            entries = self._tiers[tier]
            entries[key] = value
            entries.move_to_end(key)
            while len(entries) > self._caps[tier]:
                entries.popitem(last=False)
                self._evictions[tier] += 1
                self._counters[(tier, "evictions")].inc()
        return value

    def _get_or_build(self, tier: str, key: Tuple,
                      build: Callable[[], Any]) -> Any:
        hit, value = self._get(tier, key)
        if hit:
            return value
        return self._put(tier, key, build())

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier ``{"hits", "misses", "evictions"}`` since the last
        :meth:`clear`."""
        with self._lock:
            return {t: {"hits": self._hits[t],
                        "misses": self._misses[t],
                        "evictions": self._evictions[t]}
                    for t in self._tiers}

    def __len__(self) -> int:
        with self._lock:
            return sum(len(e) for e in self._tiers.values())

    def clear(self) -> None:
        """Drop all entries and zero :meth:`stats` (registry counters
        keep their totals)."""
        with self._lock:
            for t, entries in self._tiers.items():
                entries.clear()
                self._hits[t] = self._misses[t] = self._evictions[t] = 0


class LayerStore(TieredLRU):
    """LRU store of per-layer analysis records and donor structures."""

    TIERS = ("layer", "structure")

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS,
                 max_structures: int = DEFAULT_MAX_STRUCTURES,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__({"layer": max_records,
                          "structure": max_structures}, metrics)

    # ------------------------------------------------------------------
    # layer records
    # ------------------------------------------------------------------
    def record(self, key: Tuple, compute: Callable[[], Any]) -> Any:
        """Get-or-compute one layer record (``compute`` runs unlocked)."""
        hit, value = self._get("layer", key)
        if hit:
            return value
        return self._put("layer", key, compute())

    # ------------------------------------------------------------------
    # donor structures
    # ------------------------------------------------------------------
    def structure(self, key: Tuple) -> Tuple[bool, Any]:
        """Look up a donor entry for ``(graph fp, backend, spec)``."""
        return self._get("structure", key)

    def put_structure(self, key: Tuple, entry: Any) -> Any:
        """Register a freshly built entry as the donor for its
        structure key and return it (a concurrent miss may replace it
        with an equivalent entry built at another precision)."""
        return self._put("structure", key, entry)
