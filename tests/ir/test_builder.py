"""GraphBuilder behaviour: naming, scopes, incremental inference."""
import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.executor import Executor
from repro.ir.shape_inference import ShapeInferenceError
from repro.ir.tensor import DataType


def test_scope_names_nodes_hierarchically():
    b = GraphBuilder("g")
    x = b.input("x", (1, 3, 8, 8))
    with b.scope("stage1"):
        with b.scope("block0"):
            y = b.conv(x, 4, 3, padding=1, name="conv")
    g = b.finish(b.relu(y))
    conv = next(n for n in g.nodes if n.op_type == "Conv")
    assert conv.name == "stage1/block0/conv"
    assert "stage1.block0.conv.weight" in g.initializers


def test_fresh_names_are_unique():
    b = GraphBuilder("g")
    x = b.input("x", (4,))
    a = b.relu(x)
    c = b.relu(a)
    g = b.finish(c)
    names = [n.name for n in g.nodes]
    assert len(names) == len(set(names))


def test_incremental_shape_query():
    b = GraphBuilder("g")
    x = b.input("x", (2, 3, 32, 32))
    y = b.conv(x, 8, 3, stride=2, padding=1)
    assert b.shape(y) == (2, 8, 16, 16)
    y = b.global_avgpool(y)
    assert b.shape(y) == (2, 8, 1, 1)


def test_conv_groups_validation():
    b = GraphBuilder("g")
    x = b.input("x", (1, 3, 8, 8))
    with pytest.raises(ValueError, match="divisible"):
        b.conv(x, 4, 3, groups=2)


def test_linear_2d_uses_gemm_nd_uses_matmul():
    b = GraphBuilder("g")
    x2 = b.input("x2", (4, 8))
    x3 = b.input("x3", (2, 4, 8))
    y2 = b.linear(x2, 5, name="fc2")
    y3 = b.linear(x3, 5, name="fc3")
    b.output(y2, y3)
    g = b.finish()
    types = g.op_type_histogram()
    assert types["Gemm"] == 1
    assert types["MatMul"] == 1
    assert types["Add"] == 1  # bias of the MatMul path


def test_relu6_is_clip_with_bounds():
    b = GraphBuilder("g")
    x = b.input("x", (4,))
    y = b.relu6(x)
    g = b.finish(y)
    out = Executor(g).run({"x": np.asarray([-1, 3, 7, 6], np.float32)})[y]
    np.testing.assert_array_equal(out, [0, 3, 6, 6])


def test_silu_matches_definition():
    b = GraphBuilder("g")
    x = b.input("x", (5,))
    y = b.silu(x)
    g = b.finish(y)
    v = np.linspace(-2, 2, 5).astype(np.float32)
    out = Executor(g).run({"x": v})[y]
    np.testing.assert_allclose(out, v / (1 + np.exp(-v)), rtol=1e-5)


def test_gelu_decomposed_matches_reference():
    b = GraphBuilder("g")
    x = b.input("x", (7,))
    y = b.gelu(x)
    g = b.finish(y)
    assert g.op_type_histogram().get("Erf") == 1   # exported as Erf chain
    v = np.linspace(-3, 3, 7).astype(np.float32)
    out = Executor(g).run({"x": v})[y]
    from math import erf, sqrt
    want = np.asarray([0.5 * t * (1 + erf(t / sqrt(2))) for t in v],
                      np.float32)
    np.testing.assert_allclose(out, want, atol=1e-5)


def test_embedding_gathers_rows():
    b = GraphBuilder("g")
    ids = b.input("ids", (2, 3), DataType.INT64)
    y = b.embedding(ids, vocab=10, dim=4, name="emb")
    g = b.finish(y)
    assert g.tensor(y).shape == (2, 3, 4)


def test_finish_requires_outputs():
    b = GraphBuilder("g")
    b.input("x", (1,))
    with pytest.raises(ValueError, match="no outputs"):
        b.finish()


def test_node_rejects_unknown_op():
    b = GraphBuilder("g")
    x = b.input("x", (1,))
    with pytest.raises(ShapeInferenceError, match="no shape inference"):
        b.node("MadeUpOp", [x])


def test_reshape_transposes_composition():
    b = GraphBuilder("g")
    x = b.input("x", (2, 4, 6))
    y = b.transpose(x, (0, 2, 1))
    y = b.reshape(y, (2, 24))
    g = b.finish(y)
    v = np.arange(48, dtype=np.float32).reshape(2, 4, 6)
    out = Executor(g).run({"x": v})[y]
    np.testing.assert_array_equal(out, v.transpose(0, 2, 1).reshape(2, 24))


def test_pad_spatial():
    b = GraphBuilder("g")
    x = b.input("x", (1, 1, 2, 2))
    y = b.pad_spatial(x, (1, 0, 1, 0))
    g = b.finish(y)
    assert g.tensor(y).shape == (1, 1, 4, 2)


def test_weight_qualify_flag():
    b = GraphBuilder("g")
    with b.scope("outer"):
        w1 = b.weight((2,), name="a")
        w2 = b.weight((2,), name="pre.qualified", qualify=False)
    assert w1 == "outer/a"
    assert w2 == "pre.qualified"
