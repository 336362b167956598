"""Hypothesis property tests on the IR core."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.builder import GraphBuilder
from repro.ir.executor import Executor
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.serialization import from_json, to_json
from repro.ir.shape_inference import (broadcast_shapes, conv_output_spatial,
                                      infer_shapes)
from repro.ir.tensor import DataType, TensorInfo

shapes = st.lists(st.integers(1, 6), min_size=0, max_size=4).map(tuple)


@given(shapes, shapes)
def test_broadcast_matches_numpy(a, b):
    try:
        want = np.broadcast_shapes(a, b)
    except ValueError:
        with pytest.raises(Exception):
            broadcast_shapes(a, b)
        return
    assert broadcast_shapes(a, b) == want


@given(st.integers(1, 64), st.integers(1, 7), st.integers(1, 4),
       st.integers(0, 3), st.integers(1, 2))
def test_conv_output_spatial_matches_enumeration(size, k, s, p, d):
    eff = d * (k - 1) + 1
    if size + 2 * p < eff:
        with pytest.raises(Exception):
            conv_output_spatial(size, k, s, p, p, d)
        return
    out = conv_output_spatial(size, k, s, p, p, d)
    # enumerate valid window positions
    count = len([i for i in range(0, size + 2 * p - eff + 1) if i % s == 0])
    assert out == count


@given(shapes.filter(lambda s: len(s) >= 1))
@settings(max_examples=30, deadline=None)
def test_transpose_roundtrip_execution(shape):
    rank = len(shape)
    perm = list(range(rank))[::-1]
    b = GraphBuilder("g")
    x = b.input("x", shape)
    t = b.transpose(x, perm)
    back = b.transpose(t, [perm.index(i) for i in range(rank)])
    g = b.finish(back)
    v = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    out = Executor(g).run({"x": v})[back]
    np.testing.assert_array_equal(out, v)


@given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_matmul_inference_matches_execution(b_, m, k):
    n = k  # square-ish second operand
    gb = GraphBuilder("g")
    a = gb.input("a", (b_, m, k))
    w = gb.input("w", (k, n))
    y = gb.matmul(a, w)
    g = gb.finish(y)
    inferred = g.tensor(y).shape
    out = Executor(g).run({
        "a": np.zeros((b_, m, k), np.float32),
        "w": np.zeros((k, n), np.float32)})[y]
    assert out.shape == inferred


@given(st.lists(st.sampled_from(["Relu", "Sigmoid", "Tanh", "Abs", "Neg"]),
                min_size=1, max_size=6),
       shapes.filter(lambda s: 1 <= len(s) <= 3))
@settings(max_examples=30, deadline=None)
def test_unary_chain_shape_preserved(ops, shape):
    b = GraphBuilder("g")
    x = b.input("x", shape)
    y = x
    for op in ops:
        y = b.node(op, [y])
    g = b.finish(y)
    assert g.tensor(y).shape == tuple(shape)
    v = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    out = Executor(g).run({"x": v})[y]
    assert out.shape == tuple(shape)
    assert np.isfinite(out).all()


@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 12))
@settings(max_examples=25, deadline=None)
def test_concat_split_inverse(b_, rows, cols):
    if cols % 2:
        cols += 1
    gb = GraphBuilder("g")
    x = gb.input("x", (b_, rows, cols))
    lo, hi = gb.split(x, 2, axis=2)
    y = gb.concat([lo, hi], axis=2)
    g = gb.finish(y)
    v = np.random.default_rng(1).normal(size=(b_, rows, cols)).astype(np.float32)
    out = Executor(g).run({"x": v})[y]
    np.testing.assert_array_equal(out, v)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_serialization_roundtrip_random_linear_graph(seed):
    rng = np.random.default_rng(seed)
    b = GraphBuilder(f"g{seed % 100}")
    x = b.input("x", (int(rng.integers(1, 4)), int(rng.integers(2, 16))))
    y = x
    for _ in range(int(rng.integers(1, 5))):
        y = b.linear(y, int(rng.integers(2, 16)))
        y = b.relu(y)
    g = b.finish(y)
    g2 = from_json(to_json(g))
    infer_shapes(g2)
    assert g2.num_nodes == g.num_nodes
    assert g2.tensor(g2.output_names[0]) == g.tensor(y)


@given(shapes)
def test_tensorinfo_numel_nbytes_consistent(shape):
    t = TensorInfo("x", shape, DataType.FLOAT16)
    assert t.nbytes == t.numel * 2
    assert t.numel == int(np.prod(shape)) if shape else 1
