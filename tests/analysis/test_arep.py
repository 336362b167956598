"""AnalyzeRepresentation tests (paper §3.2.2)."""
import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.opdefs import OpClass
from repro.ir.builder import GraphBuilder
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.tensor import DataType, TensorInfo


def tiny_cnn():
    b = GraphBuilder("tiny")
    x = b.input("x", (1, 3, 16, 16))
    y = b.conv(x, 8, 3, padding=1, name="conv1")
    y = b.batchnorm(y, name="bn1")
    y = b.relu(y)
    y = b.global_avgpool(y)
    y = b.flatten(y)
    y = b.linear(y, 10, name="fc")
    return b.finish(y)


def test_ops_in_topological_order():
    ar = AnalyzeRepresentation(tiny_cnn())
    types = [op.op_type for op in ar.ops]
    assert types.index("Conv") < types.index("BatchNormalization")
    assert types.index("GlobalAveragePool") < types.index("Gemm")


def test_op_lookup_by_output_and_name():
    ar = AnalyzeRepresentation(tiny_cnn())
    conv = ar.op_by_name("conv1")
    assert conv is not None and conv.op_type == "Conv"
    assert ar.op_by_output(conv.outputs[0]) is conv
    assert ar.op_by_name("nope") is None
    assert ar.op_by_output("nope") is None


def test_op_by_name_returns_first_of_unnamed_ops():
    # unnamed nodes are looked up by op type; the first in topo order wins
    g = Graph("relus", inputs=[TensorInfo("x", (1, 4))],
              outputs=[TensorInfo("z", (1, 4))])
    g.add_node(Node("Relu", ["y"], ["z"]))
    g.add_node(Node("Relu", ["x"], ["y"]))
    ar = AnalyzeRepresentation(g)
    assert ar.op_by_name("Relu") is ar.op_by_output("y")


def test_total_cost_is_sum_of_ops():
    ar = AnalyzeRepresentation(tiny_cnn())
    total = ar.total_cost()
    assert total.flop == pytest.approx(sum(op.cost().flop for op in ar))
    assert total.memory_bytes == pytest.approx(
        sum(op.cost().memory_bytes for op in ar))


def test_stats_match_graph():
    g = tiny_cnn()
    ar = AnalyzeRepresentation(g)
    stats = ar.stats()
    assert stats.num_nodes == g.num_nodes
    assert stats.params == g.num_parameters()
    assert stats.gflop == pytest.approx(stats.flop / 1e9)
    assert "tiny" in repr(stats)


def test_precision_propagates_to_costs():
    g = tiny_cnn()
    ar32 = AnalyzeRepresentation(g, DataType.FLOAT32)
    ar16 = AnalyzeRepresentation(g, DataType.FLOAT16)
    assert ar16.total_cost().memory_bytes == pytest.approx(
        ar32.total_cost().memory_bytes / 2)
    # explicit override beats the representation default
    assert ar32.total_cost(DataType.FLOAT16).memory_bytes == pytest.approx(
        ar16.total_cost().memory_bytes)


def test_shapes_inferred_automatically():
    b = GraphBuilder("g")
    x = b.input("x", (1, 4))
    y = b.relu(x)
    g = b.finish(y)
    g.value_info = {}  # simulate a freshly-loaded graph
    ar = AnalyzeRepresentation(g)
    assert ar.tensor(y).shape == (1, 4)


def test_analyzed_op_interface():
    ar = AnalyzeRepresentation(tiny_cnn())
    conv = ar.op_by_name("conv1")
    assert conv.member_nodes == [conv.node]
    assert conv.op_class() is OpClass.CONV
    assert conv.inputs[0] == "x"
    assert len(ar) == ar.graph.num_nodes
