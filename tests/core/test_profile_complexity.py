"""Wall-clock-free complexity guard for the cold profile path.

Layer mapping used to rebuild the graph's topological index once per
backend layer and rescan the OAR unit list once per fused layer, which
made a cold profile O(layers x nodes).  These tests count how often the
three whole-graph structures are built during one cold
``Profiler.profile`` and require the count not to grow with the number
of backend layers.
"""
from collections import Counter

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.oarep import OptimizedAnalyzeRepresentation
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
