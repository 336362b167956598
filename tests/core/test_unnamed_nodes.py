"""Graphs whose nodes carry no names profile like named ones.

Backend layers name their members by ``AnalyzedOp.name``, which for an
unnamed node is a ``<op_type>#<topo index>`` fallback.  Timing used to
look truth units up by the raw (empty) node name, and two unnamed ops
of one type shared the op-type name, so such graphs failed on every
backend.
"""
import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.cache import AnalysisCache
from repro.core.profiler import Profiler
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.tensor import DataType, Initializer, TensorInfo

PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330", "ov-sim": "xeon6330"}


def mlp(names):
    """MatMul/Relu/MatMul/Relu built node by node; ``names`` gives the
    four node names ("" for unnamed)."""
    g = Graph("mlp", inputs=[TensorInfo("x", (8, 64))],
              outputs=[TensorInfo("y", (8, 16))])
    g.add_initializer(Initializer(TensorInfo("w1", (64, 32))))
    g.add_initializer(Initializer(TensorInfo("w2", (32, 16))))
    wiring = [("MatMul", ["x", "w1"], ["h1"]), ("Relu", ["h1"], ["a1"]),
              ("MatMul", ["a1", "w2"], ["h2"]), ("Relu", ["h2"], ["y"])]
    for (op_type, inputs, outputs), name in zip(wiring, names):
        g.add_node(Node(op_type, inputs, outputs, name=name))
    return g


def test_unnamed_ops_get_unique_fallback_names():
    arep = AnalyzeRepresentation(mlp([""] * 4))
    assert [op.name for op in arep.ops] == \
        ["MatMul#0", "Relu#1", "MatMul#2", "Relu#3"]
    assert arep.op_by_name("MatMul#2") is arep.op_by_output("h2")


def test_fallback_names_avoid_real_names():
    arep = AnalyzeRepresentation(mlp(["", "MatMul#0", "", ""]))
    names = [op.name for op in arep.ops]
    assert len(set(names)) == 4
    assert names[1] == "MatMul#0" and names[0] != "MatMul#0"
    assert arep.op_by_name("MatMul#0") is arep.ops[1]


@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("backend", sorted(PLATFORMS))
def test_unnamed_graph_profiles_like_named(backend, cached):
    def profile(graph):
        cache = AnalysisCache() if cached else False
        return Profiler(backend, PLATFORMS[backend], DataType.FLOAT16,
                        analysis_cache=cache).profile(graph)

    unnamed = profile(mlp([""] * 4))
    named = profile(mlp(["mm1", "relu1", "mm2", "relu2"]))
    assert len(unnamed.layers) == len(named.layers)
    assert [l.flop for l in unnamed.layers] == \
        [l.flop for l in named.layers]
    assert [l.latency_seconds for l in unnamed.layers] == \
        [l.latency_seconds for l in named.layers]
    members = [n for l in unnamed.layers for n in l.model_layers]
    assert sorted(members) == ["MatMul#0", "MatMul#2", "Relu#1", "Relu#3"]
