"""Unit tests for the Graph container: topology, validation, queries."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.graph import Graph, GraphError
from repro.ir.node import Node
from repro.ir.tensor import DataType, Initializer, TensorInfo


def diamond() -> Graph:
    """x -> relu -> (a, b branches) -> add -> y"""
    g = Graph(
        "diamond",
        inputs=[TensorInfo("x", (1, 4))],
        outputs=[TensorInfo("y", (1, 4))],
    )
    g.add_node(Node("Relu", ["x"], ["r"], name="relu"))
    g.add_node(Node("Neg", ["r"], ["a"], name="neg"))
    g.add_node(Node("Abs", ["r"], ["b"], name="abs"))
    g.add_node(Node("Add", ["a", "b"], ["y"], name="add"))
    return g


def test_producer_consumer_maps():
    g = diamond()
    assert g.producer("r").name == "relu"
    assert {n.name for n in g.consumers("r")} == {"neg", "abs"}
    assert g.producer("x") is None
    assert g.consumers("y") == []


def test_toposort_order_respects_deps():
    g = diamond()
    order = [n.name for n in g.toposort()]
    assert order.index("relu") < order.index("neg")
    assert order.index("neg") < order.index("add")
    assert order.index("abs") < order.index("add")


def test_toposort_detects_cycle():
    g = Graph("cyc", inputs=[TensorInfo("x", (1,))],
              outputs=[TensorInfo("b", (1,))])
    g.add_node(Node("Add", ["x", "b"], ["a"]))
    g.add_node(Node("Relu", ["a"], ["b"]))
    with pytest.raises(GraphError, match="cycle"):
        g.toposort()


def test_undefined_input_detected():
    g = Graph("bad", inputs=[TensorInfo("x", (1,))],
              outputs=[TensorInfo("y", (1,))])
    g.add_node(Node("Add", ["x", "ghost"], ["y"]))
    with pytest.raises(GraphError, match="undefined"):
        g.toposort()


def test_duplicate_producer_detected():
    g = Graph("dup", inputs=[TensorInfo("x", (1,))],
              outputs=[TensorInfo("y", (1,))])
    g.add_node(Node("Relu", ["x"], ["y"], name="r1"))
    g.add_node(Node("Abs", ["x"], ["y"], name="r2"))
    with pytest.raises(GraphError, match="produced by both"):
        g.producer_map()


def test_validate_missing_output():
    g = Graph("miss", inputs=[TensorInfo("x", (1,))],
              outputs=[TensorInfo("nope", (1,))])
    g.add_node(Node("Relu", ["x"], ["y"]))
    with pytest.raises(GraphError, match="never produced"):
        g.validate()


def test_validate_duplicate_node_names():
    g = Graph("dupname", inputs=[TensorInfo("x", (1,))],
              outputs=[TensorInfo("b", (1,))])
    g.add_node(Node("Relu", ["x"], ["a"], name="n"))
    g.add_node(Node("Relu", ["a"], ["b"], name="n"))
    with pytest.raises(GraphError, match="duplicate node names"):
        g.validate()


def test_initializer_duplicate_rejected():
    g = Graph("g")
    g.add_initializer(Initializer(TensorInfo("w", (1,))))
    with pytest.raises(GraphError, match="duplicate initializer"):
        g.add_initializer(Initializer(TensorInfo("w", (1,))))


def test_num_parameters_floats_only():
    g = Graph("g")
    g.add_initializer(Initializer(TensorInfo("w", (10, 10))))
    g.add_initializer(Initializer(TensorInfo("shape", (4,), DataType.INT64)))
    assert g.num_parameters() == 100
    assert g.parameter_bytes() == 400


def test_op_type_histogram():
    g = diamond()
    hist = g.op_type_histogram()
    assert hist == {"Relu": 1, "Neg": 1, "Abs": 1, "Add": 1}


def test_tensor_lookup_requires_value_info_for_intermediates():
    g = diamond()
    with pytest.raises(KeyError):
        g.tensor("r")
    g.value_info["r"] = TensorInfo("r", (1, 4))
    assert g.tensor("r").shape == (1, 4)
    assert g.tensor("x").shape == (1, 4)  # graph input always visible


def test_ancestors_between_stops_at_inputs():
    g = diamond()
    nodes = g.ancestors_between({"r"}, {"y"})
    assert [n.name for n in nodes] == ["neg", "abs", "add"]
    all_nodes = g.ancestors_between({"x"}, {"y"})
    assert [n.name for n in all_nodes] == ["relu", "neg", "abs", "add"]


def test_remove_nodes_invalidates_cache():
    g = diamond()
    g.toposort()
    add = g.producer("y")
    g.remove_nodes([add])
    assert len(g) == 3
    assert g.producer("y") is None


def test_copy_shares_initializer_data_but_not_nodes():
    g = diamond()
    g.add_initializer(Initializer(TensorInfo("w", (2,)), np.ones(2)))
    c = g.copy()
    c.nodes[0].inputs[0] = "other"
    assert g.nodes[0].inputs[0] == "x"
    assert c.initializers["w"].data is g.initializers["w"].data


def test_mutation_invalidates_toposort_cache():
    g = diamond()
    first = g.toposort()
    g.add_node(Node("Relu", ["y"], ["z"], name="tail"))
    second = g.toposort()
    assert len(second) == len(first) + 1


def test_validate_reports_every_duplicate_name_once():
    g = Graph("dupnames", inputs=[TensorInfo("x", (1,))],
              outputs=[TensorInfo("d", (1,))])
    for out, (inp, name) in zip("abcd", [("x", "p"), ("a", "q"),
                                         ("b", "p"), ("c", "q")]):
        g.add_node(Node("Relu", [inp], [out], name=name))
    with pytest.raises(GraphError, match=r"\['p', 'q'\]"):
        g.validate()


# ----------------------------------------------------------------------
# cached topo index and ancestors_between
# ----------------------------------------------------------------------
def assert_topo_index_fresh(g: Graph) -> None:
    assert g.topo_index() == {id(n): i for i, n in enumerate(g.toposort())}


def test_topo_index_cached_until_mutation():
    g = diamond()
    index = g.topo_index()
    assert g.topo_index() is index
    assert_topo_index_fresh(g)


def test_topo_index_rebuilt_after_add_node():
    g = diamond()
    before = g.topo_index()
    tail = g.add_node(Node("Relu", ["y"], ["z"], name="tail"))
    assert g.topo_index() is not before
    assert g.topo_index()[id(tail)] == 4
    assert_topo_index_fresh(g)


def test_topo_index_rebuilt_after_remove_nodes():
    g = diamond()
    add = g.producer("y")
    assert id(add) in g.topo_index()
    g.remove_nodes([add])
    assert id(add) not in g.topo_index()
    assert_topo_index_fresh(g)


def test_topo_index_rebuilt_after_invalidate():
    g = diamond()
    before = g.topo_index()
    # reorder nodes in place, then tell the graph its topology changed
    g.nodes.reverse()
    g.invalidate()
    assert g.topo_index() is not before
    assert_topo_index_fresh(g)


def test_ancestors_between_stops_at_initializers_and_graph_inputs():
    g = Graph("w", inputs=[TensorInfo("x", (1, 4))],
              outputs=[TensorInfo("y", (1, 4))])
    g.add_initializer(Initializer(TensorInfo("w", (1, 4))))
    g.add_node(Node("Relu", ["x"], ["r"], name="relu"))
    g.add_node(Node("Mul", ["r", "w"], ["y"], name="mul"))
    assert [n.name for n in g.ancestors_between(set(), {"y"})] == [
        "relu", "mul"]
    assert [n.name for n in g.ancestors_between({"r"}, {"y"})] == ["mul"]


@st.composite
def dag_with_initializers(draw):
    """A random DAG over two graph inputs and a few initializers, plus a
    random set of boundary input and output tensors."""
    n_nodes = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    g = Graph("dag", inputs=[TensorInfo("x0", (4,)), TensorInfo("x1", (4,))])
    for k in range(3):
        g.add_initializer(Initializer(TensorInfo(f"w{k}", (4,))))
    sources = ["x0", "x1", "w0", "w1", "w2"]
    available = list(sources)
    for i in range(n_nodes):
        arity = int(rng.integers(1, 4))
        ins = [str(t) for t in rng.choice(available, size=arity)]
        g.add_node(Node("Sum", ins, [f"t{i}"], name=f"n{i}"))
        available.append(f"t{i}")
    # shuffle the node list so node order differs from topo order
    order = rng.permutation(len(g.nodes))
    g.nodes = [g.nodes[i] for i in order]
    g.invalidate()
    g.outputs = [TensorInfo(available[-1], (4,))]
    inputs = {str(t) for t in rng.choice(available, size=int(rng.integers(0, 4)))}
    outputs = {str(t) for t in rng.choice(available, size=int(rng.integers(1, 4)))}
    return g, inputs, outputs


def ancestors_reference(g: Graph, inputs, outputs):
    """Forward fixpoint: a node belongs to the subgraph when one of its
    outputs is a requested output, or feeds a member through a tensor
    that is not a stop tensor."""
    stop = set(inputs) | set(g.input_names) | set(g.initializers)
    members = set()
    changed = True
    while changed:
        changed = False
        for node in g.nodes:
            if id(node) in members:
                continue
            for t in node.outputs:
                if t in stop:
                    continue
                if t in outputs or any(id(c) in members
                                       for c in g.consumers(t)):
                    members.add(id(node))
                    changed = True
                    break
    return [n for n in g.toposort() if id(n) in members]


@given(dag_with_initializers())
@settings(max_examples=60, deadline=None)
def test_ancestors_between_matches_reference(case):
    g, inputs, outputs = case
    got = g.ancestors_between(inputs, outputs)
    assert [id(n) for n in got] == [
        id(n) for n in ancestors_reference(g, inputs, outputs)]
