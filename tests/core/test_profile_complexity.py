"""Wall-clock-free complexity guard for the cold profile path.

Layer mapping used to rebuild the graph's topological index once per
backend layer and rescan the OAR unit list once per fused layer, which
made a cold profile O(layers x nodes).  These tests count how often the
three whole-graph structures are built during one cold
``Profiler.profile`` and require the count not to grow with the number
of backend layers.

Backend compile also used to build a second Analyze Representation, so
every node was fingerprinted twice and fused groups re-read their
members' tensors; the per-layer counters below pin one AR per profile,
at most one node fingerprint per node, and group fingerprints composed
from the members' memoized ones.  The backend's truth units and the
layer mapping's units often fuse the same members; their boundary io
and group fingerprint are computed once per distinct (ordered members,
fold set), not once per unit.
"""
from collections import Counter

import pytest

import repro.analysis.oarep as oarep_module
import repro.ir.fingerprint as fingerprint_module
from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.cache import AnalysisCache
from repro.analysis.oarep import FusedOp, OptimizedAnalyzeRepresentation
from repro.core.profiler import Profiler
from repro.ir.graph import Graph
from repro.ir.tensor import DataType
from repro.models.registry import build_model

PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330", "ov-sim": "xeon6330"}


@pytest.fixture
def builds(monkeypatch):
    """Count cache-miss builds of the topo order, the topo index and the
    OAR ``units`` list."""
    counts: Counter = Counter()
    toposort, topo_index = Graph.toposort, Graph.topo_index
    units = OptimizedAnalyzeRepresentation.units.fget

    def counting_toposort(self):
        counts["toposort"] += self._topo_cache is None
        return toposort(self)

    def counting_topo_index(self):
        counts["topo_index"] += self._topo_index_cache is None
        return topo_index(self)

    def counting_units(self):
        counts["units"] += self._units is None
        return units(self)

    monkeypatch.setattr(Graph, "toposort", counting_toposort)
    monkeypatch.setattr(Graph, "topo_index", counting_topo_index)
    monkeypatch.setattr(OptimizedAnalyzeRepresentation, "units",
                        property(counting_units))
    return counts


def cold_profile(model, backend, counts):
    graph = build_model(model)
    counts.clear()
    profiler = Profiler(backend, PLATFORMS[backend], DataType.FLOAT16,
                        analysis_cache=AnalysisCache())
    report = profiler.profile(graph)
    return len(report.layers), dict(counts)


@pytest.mark.parametrize("backend", sorted(PLATFORMS))
def test_whole_graph_builds_independent_of_layer_count(backend, builds):
    small_layers, small = cold_profile("resnet50", backend, builds)
    large_layers, large = cold_profile("swin-small", backend, builds)
    assert large_layers > 5 * small_layers
    assert large == small
    for what in ("toposort", "topo_index", "units"):
        assert large.get(what, 0) <= 2, (what, large)


@pytest.fixture
def analyses(monkeypatch):
    """Count AR constructions, node fingerprints, the node documents
    built while a group fingerprint is being computed, fused-unit io
    computations and group fingerprints; ``counts.fused_keys`` collects
    the distinct (ordered members, fold set) of every fused unit."""
    counts: Counter = Counter()
    counts.fused_keys = set()
    in_group = []
    ar_init = AnalyzeRepresentation.__init__
    node_doc = fingerprint_module._node_doc
    group_fp = oarep_module.group_fingerprint
    fused_io = oarep_module.fused_io
    fused_init = FusedOp.__init__

    def counting_ar_init(self, *args, **kwargs):
        counts["arep"] += 1
        ar_init(self, *args, **kwargs)

    def counting_node_doc(*args, **kwargs):
        counts["node_doc"] += 1
        counts["group_node_doc"] += bool(in_group)
        return node_doc(*args, **kwargs)

    def counting_group_fp(*args, **kwargs):
        counts["group_fp"] += 1
        in_group.append(True)
        try:
            return group_fp(*args, **kwargs)
        finally:
            in_group.pop()

    def counting_fused_io(*args, **kwargs):
        counts["fused_io"] += 1
        return fused_io(*args, **kwargs)

    def recording_fused_init(self, members, rep, name="", folded=()):
        folded = frozenset(folded)
        counts["fused_units"] += 1
        counts.fused_keys.add((tuple(m.name for m in members), folded))
        fused_init(self, members, rep, name=name, folded=folded)

    monkeypatch.setattr(AnalyzeRepresentation, "__init__", counting_ar_init)
    monkeypatch.setattr(fingerprint_module, "_node_doc", counting_node_doc)
    monkeypatch.setattr(oarep_module, "group_fingerprint", counting_group_fp)
    monkeypatch.setattr(oarep_module, "fused_io", counting_fused_io)
    monkeypatch.setattr(FusedOp, "__init__", recording_fused_init)
    return counts


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("backend", sorted(PLATFORMS))
def test_each_layer_analysed_once_per_cold_profile(backend, cached,
                                                   analyses):
    graph = build_model("swin-tiny")
    analyses.clear()
    cache = AnalysisCache() if cached else False
    Profiler(backend, PLATFORMS[backend], DataType.FLOAT16,
             analysis_cache=cache).profile(graph)
    assert analyses["arep"] == 1
    if cached:
        assert 0 < analyses["node_doc"] <= len(graph.nodes)
    else:
        # no layer store keys latencies by layer fingerprint, so no
        # node or group is fingerprinted at all
        assert analyses["node_doc"] == 0
    assert analyses["group_node_doc"] == 0
    # truth and mapped units over the same members share one record
    distinct = len(analyses.fused_keys)
    assert 0 < distinct < analyses["fused_units"]
    assert analyses["fused_io"] == distinct
    assert analyses["group_fp"] == (distinct if cached else 0)


@pytest.mark.parametrize("backend", sorted(PLATFORMS))
def test_assembled_sibling_builds_no_ar(backend, analyses):
    """A sibling precision re-times the donor's layers over the donor's
    AR: ``layer_latency`` and every unit's cost already read that AR."""
    graph = build_model("mobilenetv2-05")
    cache = AnalysisCache()
    Profiler(backend, PLATFORMS[backend], DataType.FLOAT16,
             analysis_cache=cache).profile(graph)
    analyses.clear()
    report = Profiler(backend, PLATFORMS[backend], DataType.FLOAT32,
                      analysis_cache=cache).profile(graph)
    assert report.layers
    assert cache.stats()["structure"]["hits"] == 1
    assert analyses["arep"] == 0
