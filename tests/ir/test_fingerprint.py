"""Content-fingerprint tests: stability and sensitivity."""
import json

import numpy as np
import pytest

from repro.core.profiler import Profiler
from repro.core.report import ProfileReport
from repro.ir.builder import GraphBuilder
from repro.ir.fingerprint import array_digest, graph_fingerprint, report_digest
from repro.ir.graph import Graph, GraphError
from repro.ir.node import Node
from repro.ir.serialization import from_json, to_json
from repro.ir.tensor import DataType, Initializer, TensorInfo
from repro.models import build_model


def small_model():
    b = GraphBuilder("m")
    x = b.input("x", (1, 3, 8, 8))
    y = b.conv(x, 4, 3, padding=1, name="c1")
    y = b.relu(y)
    y = b.flatten(y)
    y = b.linear(y, 10, name="fc")
    return b.finish(y)


def test_fingerprint_is_deterministic():
    assert graph_fingerprint(small_model()) == graph_fingerprint(small_model())


def test_fingerprint_stable_across_serialization_roundtrip():
    g = small_model()
    fp = graph_fingerprint(g)
    for _ in range(3):
        g = from_json(to_json(g))
        assert graph_fingerprint(g) == fp


def test_fingerprint_stable_for_zoo_model_roundtrip():
    g = build_model("shufflenetv2-05", batch_size=2)
    assert graph_fingerprint(from_json(to_json(g))) == graph_fingerprint(g)


def _parallel_branches(order):
    g = Graph(name="par",
              inputs=[TensorInfo("x", (1, 4), DataType.FLOAT32)],
              outputs=[TensorInfo("y", (1, 4), DataType.FLOAT32)])
    nodes = {
        "a": Node("Relu", ["x"], ["t_a"], name="a"),
        "b": Node("Sigmoid", ["x"], ["t_b"], name="b"),
        "add": Node("Add", ["t_a", "t_b"], ["y"], name="add"),
    }
    for key in order:
        g.add_node(nodes[key])
    g.validate()
    return g


def test_fingerprint_independent_of_node_list_order():
    assert graph_fingerprint(_parallel_branches(["a", "b", "add"])) \
        == graph_fingerprint(_parallel_branches(["b", "a", "add"]))


def test_fingerprint_sensitive_to_attribute_change():
    g1, g2 = small_model(), small_model()
    conv = next(n for n in g2.nodes if n.op_type == "Conv")
    conv.attrs["strides"] = [2, 2]
    assert graph_fingerprint(g1) != graph_fingerprint(g2)


def _with_constant(value):
    g = small_model()
    data = np.full((4,), value, dtype=np.float32)
    g.add_initializer(
        Initializer(TensorInfo("extra", (4,), DataType.FLOAT32), data))
    return g


def test_fingerprint_sensitive_to_initializer_data_change():
    assert graph_fingerprint(_with_constant(1.0)) \
        == graph_fingerprint(_with_constant(1.0))
    assert graph_fingerprint(_with_constant(1.0)) \
        != graph_fingerprint(_with_constant(2.0))


def test_fingerprint_distinguishes_virtual_from_materialized():
    g1, g2 = small_model(), small_model()
    name = next(iter(g2.initializers))
    info = g2.initializers[name].info
    g2.initializers[name] = Initializer(
        info, np.zeros(info.shape, dtype=np.float32))
    assert graph_fingerprint(g1) != graph_fingerprint(g2)


def test_fingerprint_sensitive_to_initializer_shape_change():
    g1, g2 = small_model(), small_model()
    virtual = next(k for k, init in g2.initializers.items()
                   if init.data is None)
    info = g2.initializers[virtual].info
    bigger = TensorInfo(info.name, (info.shape[0] + 1,) + tuple(info.shape[1:]),
                        info.dtype)
    g2.initializers[virtual] = Initializer(bigger, None)
    assert graph_fingerprint(g1) != graph_fingerprint(g2)


def test_fingerprint_sensitive_to_graph_name():
    g1, g2 = small_model(), small_model()
    g2.name = "renamed"
    assert graph_fingerprint(g1) != graph_fingerprint(g2)


def test_fingerprint_of_cyclic_graph_raises():
    g = Graph("cyc", inputs=[TensorInfo("x", (1,))],
              outputs=[TensorInfo("b", (1,))])
    g.add_node(Node("Add", ["x", "b"], ["a"]))
    g.add_node(Node("Relu", ["a"], ["b"]))
    with pytest.raises(GraphError, match="cycle"):
        graph_fingerprint(g)


def test_fingerprint_hashes_numeric_subclasses_as_their_value():
    """An attribute set after construction may be a numpy scalar that
    subclasses ``float``; it hashes like the plain value, as in JSON,
    alone or in a list (marshal would write it as ``bytes``)."""
    g1, g2 = small_model(), small_model()
    for g, value in ((g1, 0.5), (g2, np.float64(0.5))):
        conv = next(n for n in g.nodes if n.op_type == "Conv")
        conv.attrs["alpha"] = value
        conv.attrs["scales"] = [value, 2.0]
    assert graph_fingerprint(g1) == graph_fingerprint(g2)


def test_array_digest_covers_dtype_and_shape():
    a = np.arange(6, dtype=np.float32)
    assert array_digest(a) != array_digest(a.astype(np.float64))
    assert array_digest(a) != array_digest(a.reshape(2, 3))
    assert array_digest(a) == array_digest(a.copy())


# ----------------------------------------------------------------------
def _profile(batch=2):
    return Profiler("trt-sim", "a100", "fp16").profile(
        build_model("mobilenetv2-05", batch_size=batch))


def test_report_digest_deterministic_across_runs():
    assert report_digest(_profile()) == report_digest(_profile())


def test_report_digest_stable_across_json_roundtrip():
    report = _profile()
    restored = ProfileReport.from_dict(json.loads(report.to_json()))
    assert report_digest(restored) == report_digest(report)


def test_report_digest_sensitive_to_metrics():
    a, b = _profile(), _profile()
    b.layers[0].flop += 1.0
    assert report_digest(a) != report_digest(b)


def test_report_digest_differs_across_batch_sizes():
    assert report_digest(_profile(1)) != report_digest(_profile(2))


# ----------------------------------------------------------------------
# layer-granular fingerprints (ISSUE 9): name-free, cross-graph stable
# ----------------------------------------------------------------------
from repro.analysis.arep import AnalyzeRepresentation  # noqa: E402
from repro.ir.fingerprint import (LAYER_FINGERPRINT_VERSION,  # noqa: E402
                                  group_fingerprint, node_fingerprint,
                                  tensor_fingerprint)


def _conv_graph(name, input_name, conv_name, *, prelude_relu=False,
                channels=8, kernel=3, image=16, dtype_size=16):
    """A tiny graph whose conv layer shape is shared across variants."""
    b = GraphBuilder(name)
    x = b.input(input_name, (1, 3, image, image))
    if prelude_relu:                   # shape-preserving, shifts names
        x = b.relu(x)
    y = b.conv(x, channels, kernel, padding=1, name=conv_name)
    y = b.relu(y)
    return b.finish(y)


def _conv_fp(graph):
    arep = AnalyzeRepresentation(graph, DataType.FLOAT16)
    op = next(o for o in arep.ops if o.op_type == "Conv")
    return op.layer_fingerprint()


def test_layer_fingerprint_equal_across_graphs_sharing_shape():
    """The same conv layer shape in two different graphs — different
    graph names, tensor names, and surrounding nodes — fingerprints
    identically: that equality is what lets the layer store share
    records across a model zoo."""
    a = _conv_fp(_conv_graph("a", "img", "conv_a"))
    b = _conv_fp(_conv_graph("b", "data", "totally_different",
                             prelude_relu=True))
    assert a == b


def test_layer_fingerprint_sensitive_to_attrs_shape_and_channels():
    base = _conv_fp(_conv_graph("a", "x", "c"))
    assert base != _conv_fp(_conv_graph("a", "x", "c", kernel=5))
    assert base != _conv_fp(_conv_graph("a", "x", "c", channels=16))
    assert base != _conv_fp(_conv_graph("a", "x", "c", image=32))


def test_layer_fingerprint_sensitive_to_dtype():
    def with_dtype(dtype):
        b = GraphBuilder("a", dtype=dtype)
        x = b.input("x", (1, 3, 16, 16))
        y = b.conv(x, 8, 3, padding=1, name="c")
        return _conv_fp(b.finish(y))

    assert with_dtype(DataType.FLOAT16) != with_dtype(DataType.FLOAT32)


def test_node_fingerprint_distinguishes_initializer_inputs():
    """A weight input and an activation input with identical shape and
    dtype must not collide — their cost models differ."""
    g = _conv_graph("a", "x", "c")
    arep = AnalyzeRepresentation(g, DataType.FLOAT16)
    conv = next(n for n in g.nodes if n.op_type == "Conv")
    with_init = node_fingerprint(conv, arep.tensor, g.initializers)
    without = node_fingerprint(conv, arep.tensor, ())
    assert with_init != without


def test_group_fingerprint_sensitive_to_member_order():
    """Fused-cost accumulation sums floats in member order, so groups
    with reordered members must not share a latency record."""
    g = _conv_graph("a", "x", "c")
    arep = AnalyzeRepresentation(g, DataType.FLOAT16)
    nodes = [op.node for op in arep.ops]
    fwd = group_fingerprint(nodes, arep.tensor, g.initializers)
    rev = group_fingerprint(list(reversed(nodes)), arep.tensor,
                            g.initializers)
    assert fwd != rev


def test_group_fingerprint_covers_externals_and_folds():
    g = _conv_graph("a", "x", "c")
    arep = AnalyzeRepresentation(g, DataType.FLOAT16)
    nodes = [op.node for op in arep.ops]
    base = group_fingerprint(nodes, arep.tensor, g.initializers)
    ext = group_fingerprint(nodes, arep.tensor, g.initializers,
                            external_outputs=[nodes[0].outputs[0]])
    folded = group_fingerprint(nodes, arep.tensor, g.initializers,
                               folded_indices=[1])
    assert len({base, ext, folded}) == 3


def test_tensor_fingerprint_covers_shape_and_dtype():
    a = tensor_fingerprint(TensorInfo("t", (1, 8, 4, 4), DataType.FLOAT16))
    assert a == tensor_fingerprint(
        TensorInfo("renamed", (1, 8, 4, 4), DataType.FLOAT16))
    assert a != tensor_fingerprint(
        TensorInfo("t", (1, 8, 4, 8), DataType.FLOAT16))
    assert a != tensor_fingerprint(
        TensorInfo("t", (1, 8, 4, 4), DataType.FLOAT32))


def test_layer_fingerprints_carry_version_and_kind_prefix():
    """node/group/tensor docs hash under distinct kind tags plus the
    format version, so tiers can never alias and a format bump
    invalidates stale cross-process stores."""
    assert LAYER_FINGERPRINT_VERSION == 3
    g = _conv_graph("a", "x", "c")
    arep = AnalyzeRepresentation(g, DataType.FLOAT16)
    conv = next(n for n in g.nodes if n.op_type == "Conv")
    node_fp = node_fingerprint(conv, arep.tensor, g.initializers)
    group_fp = group_fingerprint([conv], arep.tensor, g.initializers)
    assert node_fp != group_fp       # a 1-node group is still a group
