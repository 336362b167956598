"""Hypothesis property tests over random DAG topologies."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.graph import Graph, GraphError
from repro.ir.node import Node
from repro.ir.tensor import TensorInfo


@st.composite
def random_dag(draw):
    """A random single-input DAG of unary/binary float ops."""
    n_nodes = draw(st.integers(1, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    g = Graph("dag", inputs=[TensorInfo("x", (4,))])
    available = ["x"]
    for i in range(n_nodes):
        binary = rng.random() < 0.4 and len(available) >= 2
        out = f"t{i}"
        if binary:
            a, b = rng.choice(available, size=2, replace=True)
            g.add_node(Node("Add", [str(a), str(b)], [out], name=f"n{i}"))
        else:
            a = rng.choice(available)
            g.add_node(Node("Relu", [str(a)], [out], name=f"n{i}"))
        available.append(out)
    g.outputs = [TensorInfo(available[-1], (4,))]
    return g


@given(random_dag())
@settings(max_examples=40, deadline=None)
def test_toposort_respects_every_edge(g):
    order = {n.name: i for i, n in enumerate(g.toposort())}
    producers = g.producer_map()
    for node in g.nodes:
        for inp in node.present_inputs:
            prod = producers.get(inp)
            if prod is not None:
                assert order[prod.name] < order[node.name]


@given(random_dag())
@settings(max_examples=40, deadline=None)
def test_toposort_is_permutation(g):
    order = g.toposort()
    assert sorted(n.name for n in order) == sorted(n.name for n in g.nodes)


@given(random_dag())
@settings(max_examples=25, deadline=None)
def test_consumer_producer_duality(g):
    consumers = g.consumer_map()
    for tensor, nodes in consumers.items():
        for node in nodes:
            assert tensor in node.present_inputs
    producers = g.producer_map()
    for tensor, node in producers.items():
        assert tensor in node.outputs


@given(random_dag())
@settings(max_examples=25, deadline=None)
def test_ancestors_between_is_closed(g):
    """The subgraph between graph input and output contains, for every
    member node, the producers of all its non-boundary inputs."""
    out_name = g.output_names[0]
    nodes = g.ancestors_between({"x"}, {out_name})
    member_names = {n.name for n in nodes}
    producers = g.producer_map()
    for node in nodes:
        for inp in node.present_inputs:
            if inp == "x":
                continue
            prod = producers.get(inp)
            if prod is not None:
                assert prod.name in member_names


@given(random_dag())
@settings(max_examples=20, deadline=None)
def test_execution_matches_on_copy(g):
    from repro.ir.executor import Executor
    from repro.ir.shape_inference import infer_shapes
    infer_shapes(g)
    v = np.random.default_rng(0).normal(size=(4,)).astype(np.float32)
    a = Executor(g).run({"x": v})
    b = Executor(g.copy()).run({"x": v})
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
