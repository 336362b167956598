"""Conv correctness vs a naive direct-convolution reference.

Covers the awkward corners — grouped + dilated kernels and the
``SAME_LOWER`` / ``SAME_UPPER`` auto-pad modes with asymmetric per-side
padding — and pins the compiled-plan path to the legacy executor
bit-for-bit (the plan reuses scratch arenas, so any stale-buffer bug
shows up here as a byte mismatch on the second run).
"""
import numpy as np
import pytest

from repro.ir.executor import Executor
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.plan import compile_plan
from repro.ir.shape_inference import infer_shapes
from repro.ir.tensor import DataType, Initializer, TensorInfo


def direct_conv(x, w, b, strides, pads, dilations, group):
    """O(n^7) reference with independent per-side pads."""
    n, cin, h, ww = x.shape
    cout, cg, kh, kw = w.shape
    sh, sw = strides
    ph0, pw0, ph1, pw1 = pads
    dh, dw = dilations
    xp = np.pad(x, ((0, 0), (0, 0), (ph0, ph1), (pw0, pw1)))
    oh = (h + ph0 + ph1 - (dh * (kh - 1) + 1)) // sh + 1
    ow = (ww + pw0 + pw1 - (dw * (kw - 1) + 1)) // sw + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    cpg_out = cout // group
    for ni in range(n):
        for co in range(cout):
            gidx = co // cpg_out
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (xp[ni, gidx * cg + ci,
                                           oy * sh + ky * dh,
                                           ox * sw + kx * dw]
                                        * w[co, ci, ky, kx])
                    out[ni, co, oy, ox] = acc + (0.0 if b is None else b[co])
    return out


def same_pads(in_size, k, s, d, upper):
    eff = d * (k - 1) + 1
    out = -(-in_size // s)
    total = max(0, (out - 1) * s + eff - in_size)
    small, big = total // 2, total - total // 2
    return (small, big) if upper else (big, small)


def conv_graph(x, w, b, attrs):
    g = Graph("conv", inputs=[TensorInfo("x", x.shape, DataType.FLOAT32)])
    g.add_initializer(Initializer(
        TensorInfo("w", w.shape, DataType.FLOAT32), w))
    names = ["x", "w"]
    if b is not None:
        g.add_initializer(Initializer(
            TensorInfo("b", b.shape, DataType.FLOAT32), b))
        names.append("b")
    g.add_node(Node("Conv", names, ["y"], attrs=attrs))
    g.outputs = [TensorInfo("y", (1,), DataType.FLOAT32)]
    infer_shapes(g)
    g.outputs = [g.tensor("y")]
    return g


CASES = [
    # (x_shape, w_shape, attrs, bias)
    pytest.param((1, 4, 9, 9), (8, 2, 3, 3),
                 {"group": 2, "strides": [1, 1]}, True, id="grouped"),
    pytest.param((2, 3, 11, 11), (6, 3, 3, 3),
                 {"dilations": [2, 2], "pads": [1, 1, 1, 1]}, True,
                 id="dilated"),
    pytest.param((1, 6, 10, 8), (6, 1, 3, 3),
                 {"group": 6, "dilations": [2, 3], "strides": [2, 1],
                  "pads": [2, 3, 2, 3]}, False, id="depthwise-dilated"),
    pytest.param((1, 4, 7, 7), (8, 2, 3, 3),
                 {"group": 2, "dilations": [2, 2],
                  "auto_pad": "SAME_LOWER", "strides": [2, 2]}, True,
                 id="grouped-dilated-same-lower"),
    pytest.param((1, 3, 8, 8), (5, 3, 2, 2),
                 {"auto_pad": "SAME_LOWER", "strides": [3, 3]}, True,
                 id="same-lower-asymmetric"),
    pytest.param((1, 3, 8, 8), (5, 3, 2, 2),
                 {"auto_pad": "SAME_UPPER", "strides": [3, 3]}, False,
                 id="same-upper-asymmetric"),
]


def _resolve_case(x_shape, w_shape, attrs, bias):
    rng = np.random.default_rng(hash((x_shape, w_shape)) % (2 ** 31))
    x = rng.standard_normal(x_shape).astype(np.float32)
    w = rng.standard_normal(w_shape).astype(np.float32)
    b = rng.standard_normal(w_shape[0]).astype(np.float32) if bias else None
    strides = attrs.get("strides", [1, 1])
    dil = attrs.get("dilations", [1, 1])
    auto = attrs.get("auto_pad", "NOTSET")
    if auto in ("SAME_UPPER", "SAME_LOWER"):
        (ph0, ph1) = same_pads(x_shape[2], w_shape[2], strides[0], dil[0],
                               auto == "SAME_UPPER")
        (pw0, pw1) = same_pads(x_shape[3], w_shape[3], strides[1], dil[1],
                               auto == "SAME_UPPER")
        pads = [ph0, pw0, ph1, pw1]
    else:
        pads = attrs.get("pads", [0, 0, 0, 0])
    return x, w, b, strides, pads, dil, attrs.get("group", 1)


@pytest.mark.parametrize("x_shape,w_shape,attrs,bias", CASES)
def test_executor_matches_direct_reference(x_shape, w_shape, attrs, bias):
    x, w, b, strides, pads, dil, group = _resolve_case(
        x_shape, w_shape, attrs, bias)
    expected = direct_conv(x, w, b, strides, pads, dil, group)
    g = conv_graph(x, w, b, attrs)
    got = Executor(g).run({"x": x})["y"]
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=2e-5, atol=2e-5)


@pytest.mark.parametrize("x_shape,w_shape,attrs,bias", CASES)
def test_plan_bit_identical_to_legacy(x_shape, w_shape, attrs, bias):
    x, w, b, strides, pads, dil, group = _resolve_case(
        x_shape, w_shape, attrs, bias)
    g = conv_graph(x, w, b, attrs)
    legacy = Executor(g).run({"x": x})["y"]
    plan = compile_plan(g)
    for _ in range(3):  # repeats catch stale scratch-arena state
        got = plan.run({"x": x})["y"]
        assert got.dtype == legacy.dtype
        assert got.shape == legacy.shape
        assert got.tobytes() == legacy.tobytes()


def test_plan_bit_identical_with_changing_inputs():
    """Arena reuse must not leak one run's padding into the next."""
    x_shape, w_shape = (1, 4, 9, 9), (8, 2, 3, 3)
    attrs = {"group": 2, "pads": [2, 2, 2, 2], "dilations": [2, 2]}
    rng = np.random.default_rng(7)
    w = rng.standard_normal(w_shape).astype(np.float32)
    g = conv_graph(rng.standard_normal(x_shape).astype(np.float32),
                   w, None, attrs)
    plan = compile_plan(g)
    for _ in range(4):
        x = rng.standard_normal(x_shape).astype(np.float32)
        assert plan.run({"x": x})["y"].tobytes() == \
            Executor(g).run({"x": x})["y"].tobytes()
