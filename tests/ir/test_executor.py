"""Reference-executor tests: each op family against hand-computed or
brute-force numpy results."""
import math

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.executor import ExecutionError, Executor
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.tensor import DataType, Initializer, TensorInfo


def run_single(op_type, feeds, attrs=None, inits=(), input_order=None,
               n_outputs=1):
    infos = [TensorInfo(k, np.asarray(v).shape,
                        DataType.from_numpy(np.asarray(v).dtype))
             for k, v in feeds.items()]
    g = Graph("t", inputs=infos)
    for name, data in inits:
        data = np.asarray(data)
        g.add_initializer(Initializer(
            TensorInfo(name, data.shape, DataType.from_numpy(data.dtype)),
            data))
    names = input_order or (list(feeds) + [n for n, _ in inits])
    outs = [f"o{i}" for i in range(n_outputs)]
    g.add_node(Node(op_type, names, outs, attrs=attrs or {}))
    g.outputs = [TensorInfo(o, (1,)) for o in outs]
    res = Executor(g).run({k: np.asarray(v) for k, v in feeds.items()},
                          fetch=outs)
    vals = [res[o] for o in outs]
    return vals[0] if n_outputs == 1 else vals


def brute_force_conv(x, w, b, stride, pad, group=1, dilation=1):
    """O(n^7) reference convolution."""
    n, cin, h, ww_ = x.shape
    cout, cg, kh, kw = w.shape
    sh = sw = stride
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - (dilation * (kh - 1) + 1)) // sh + 1
    ow = (ww_ + 2 * pad - (dilation * (kw - 1) + 1)) // sw + 1
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
                                iy = oy * sh + ky * dilation
                                ix = ox * sw + kx * dilation
                                acc += (xp[ni, gidx * cg + ci, iy, ix]
                                        * w[co, ci, ky, kx])
                    out[ni, co, oy, ox] = acc + (b[co] if b is not None else 0)
    return out.astype(np.float32)


class TestConv:
    @pytest.mark.parametrize("stride,pad,group", [
        (1, 1, 1), (2, 1, 1), (1, 0, 1), (1, 1, 4), (2, 2, 2),
    ])
    def test_against_brute_force(self, stride, pad, group):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 7, 7)).astype(np.float32)
        w = rng.normal(size=(8, 4 // group, 3, 3)).astype(np.float32)
        b = rng.normal(size=(8,)).astype(np.float32)
        got = run_single("Conv", {"x": x}, attrs={
            "strides": [stride, stride], "pads": [pad] * 4, "group": group},
            inits=[("w", w), ("b", b)], input_order=["x", "w", "b"])
        want = brute_force_conv(x, w, b, stride, pad, group)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_dilated(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 9, 9)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        got = run_single("Conv", {"x": x}, attrs={"dilations": [2, 2]},
                         inits=[("w", w)], input_order=["x", "w"])
        want = brute_force_conv(x, w, None, 1, 0, dilation=2)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


class TestPool:
    def test_maxpool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        got = run_single("MaxPool", {"x": x},
                         attrs={"kernel_shape": [2, 2], "strides": [2, 2]})
        np.testing.assert_array_equal(got[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_excludes_pad(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        got = run_single("AveragePool", {"x": x},
                         attrs={"kernel_shape": [2, 2], "strides": [1, 1],
                                "pads": [1, 1, 0, 0]})
        # every window averages only the real elements
        np.testing.assert_allclose(got, np.ones_like(got))

    def test_global_avgpool(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        got = run_single("GlobalAveragePool", {"x": x})
        np.testing.assert_allclose(got.reshape(-1), [1.5, 5.5])


class TestLinear:
    def test_matmul(self):
        a = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
        b = np.random.default_rng(1).normal(size=(5, 6)).astype(np.float32)
        got = run_single("MatMul", {"a": a, "b": b})
        np.testing.assert_allclose(got, a @ b, rtol=1e-5)

    def test_gemm_full(self):
        a = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
        b = np.random.default_rng(1).normal(size=(6, 5)).astype(np.float32)
        c = np.random.default_rng(2).normal(size=(6,)).astype(np.float32)
        got = run_single("Gemm", {"a": a, "b": b, "c": c},
                         attrs={"transA": 1, "transB": 1,
                                "alpha": 2.0, "beta": 0.5})
        np.testing.assert_allclose(got, 2.0 * (a.T @ b.T) + 0.5 * c,
                                    rtol=1e-5)

    def test_einsum(self):
        a = np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32)
        b = np.random.default_rng(1).normal(size=(2, 4, 5)).astype(np.float32)
        got = run_single("Einsum", {"a": a, "b": b},
                         attrs={"equation": "bij,bjk->bik"})
        np.testing.assert_allclose(got, np.einsum("bij,bjk->bik", a, b),
                                    rtol=1e-5)


class TestNormalization:
    def test_layernorm(self):
        x = np.random.default_rng(0).normal(size=(2, 5, 8)).astype(np.float32)
        scale = np.ones(8, dtype=np.float32)
        bias = np.zeros(8, dtype=np.float32)
        got = run_single("LayerNormalization", {"x": x},
                         attrs={"axis": -1},
                         inits=[("s", scale), ("b", bias)],
                         input_order=["x", "s", "b"])
        mu = x.mean(-1, keepdims=True)
        sd = x.std(-1, keepdims=True)
        np.testing.assert_allclose(got, (x - mu) / np.sqrt(sd**2 + 1e-5),
                                    rtol=1e-3, atol=1e-3)

    def test_batchnorm_applies_affine(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
        got = run_single(
            "BatchNormalization", {"x": x},
            inits=[("s", np.full(3, 2.0, np.float32)),
                   ("b", np.full(3, 1.0, np.float32)),
                   ("m", np.zeros(3, np.float32)),
                   ("v", np.ones(3, np.float32))],
            input_order=["x", "s", "b", "m", "v"])
        np.testing.assert_allclose(got, 2.0 * x / np.sqrt(1 + 1e-5) + 1.0,
                                    rtol=1e-4)

    def test_groupnorm_zero_mean_unit_var(self):
        x = np.random.default_rng(0).normal(size=(2, 8, 4, 4)).astype(np.float32)
        got = run_single("GroupNormalization", {"x": x},
                         attrs={"num_groups": 2},
                         inits=[("s", np.ones(8, np.float32)),
                                ("b", np.zeros(8, np.float32))],
                         input_order=["x", "s", "b"])
        grouped = got.reshape(2, 2, -1)
        np.testing.assert_allclose(grouped.mean(-1), 0, atol=1e-4)
        np.testing.assert_allclose(grouped.std(-1), 1, atol=1e-2)


class TestActivationsAndElementwise:
    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 9)).astype(np.float32)
        got = run_single("Softmax", {"x": x}, attrs={"axis": -1})
        np.testing.assert_allclose(got.sum(-1), 1.0, rtol=1e-5)
        assert (got >= 0).all()

    def test_erf_accuracy(self):
        x = np.linspace(-3, 3, 101).astype(np.float32)
        got = run_single("Erf", {"x": x})
        from math import erf
        want = np.asarray([erf(v) for v in x], dtype=np.float32)
        np.testing.assert_allclose(got, want, atol=2e-6)

    def test_clip(self):
        x = np.asarray([-5, 0, 5, 10], dtype=np.float32)
        got = run_single("Clip", {"x": x},
                         inits=[("lo", np.float32(0)), ("hi", np.float32(6))],
                         input_order=["x", "lo", "hi"])
        np.testing.assert_array_equal(got, [0, 0, 5, 6])

    def test_hardswish(self):
        x = np.asarray([-4, 0, 4], dtype=np.float32)
        got = run_single("HardSwish", {"x": x})
        np.testing.assert_allclose(got, [0, 0, 4], atol=1e-6)

    def test_where(self):
        c = np.asarray([True, False, True])
        got = run_single("Where", {"c": c,
                                   "a": np.asarray([1., 2., 3.], np.float32),
                                   "b": np.asarray([9., 9., 9.], np.float32)})
        np.testing.assert_array_equal(got, [1, 9, 3])

    @pytest.mark.parametrize("op,fn", [
        ("Add", np.add), ("Sub", np.subtract), ("Mul", np.multiply),
        ("Max", np.maximum), ("Min", np.minimum),
    ])
    def test_binary_broadcast(self, op, fn):
        a = np.random.default_rng(0).normal(size=(3, 1, 4)).astype(np.float32)
        b = np.random.default_rng(1).normal(size=(2, 4)).astype(np.float32)
        got = run_single(op, {"a": a, "b": b})
        np.testing.assert_allclose(got, fn(a, b), rtol=1e-6)


class TestShapeOps:
    def test_transpose_reshape_roundtrip(self):
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        t = run_single("Transpose", {"x": x}, attrs={"perm": [2, 0, 1]})
        np.testing.assert_array_equal(t, x.transpose(2, 0, 1))

    def test_slice_steps(self):
        x = np.arange(10, dtype=np.float32)
        got = run_single("Slice", {"x": x},
                         attrs={"starts": [1], "ends": [9], "axes": [0],
                                "steps": [2]})
        np.testing.assert_array_equal(got, [1, 3, 5, 7])

    def test_split(self):
        x = np.arange(12, dtype=np.float32).reshape(2, 6)
        a, b = run_single("Split", {"x": x}, attrs={"axis": 1}, n_outputs=2)
        np.testing.assert_array_equal(a, x[:, :3])
        np.testing.assert_array_equal(b, x[:, 3:])

    def test_concat_gather_pad(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        got = run_single("Concat", {"a": x, "b": x}, attrs={"axis": 0})
        assert got.shape == (4, 3)
        got = run_single("Gather", {"t": x},
                         inits=[("i", np.asarray([1, 0], np.int64))],
                         input_order=["t", "i"], attrs={"axis": 0})
        np.testing.assert_array_equal(got, x[[1, 0]])
        got = run_single("Pad", {"x": x}, attrs={"pads": [0, 1, 0, 1]})
        assert got.shape == (2, 5)

    def test_resize_nearest_doubles(self):
        x = np.asarray([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        got = run_single("Resize", {"x": x},
                         attrs={"scales": [1.0, 1.0, 2.0, 2.0]})
        np.testing.assert_array_equal(
            got[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_expand(self):
        x = np.asarray([[1.0], [2.0]], dtype=np.float32)
        got = run_single("Expand", {"x": x},
                         inits=[("s", np.asarray([2, 3], np.int64))],
                         input_order=["x", "s"])
        assert got.shape == (2, 3)


class TestReductions:
    @pytest.mark.parametrize("op,fn", [
        ("ReduceMean", np.mean), ("ReduceSum", np.sum),
        ("ReduceMax", np.max), ("ReduceMin", np.min),
    ])
    def test_reduce(self, op, fn):
        x = np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32)
        got = run_single(op, {"x": x}, attrs={"axes": [1], "keepdims": 1})
        np.testing.assert_allclose(got, fn(x, axis=1, keepdims=True),
                                    rtol=1e-5)

    def test_argmax(self):
        x = np.asarray([[1, 5, 2], [9, 0, 3]], dtype=np.float32)
        got = run_single("ArgMax", {"x": x}, attrs={"axis": 1, "keepdims": 0})
        np.testing.assert_array_equal(got, [1, 0])


class TestDriver:
    def test_missing_feed(self):
        b = GraphBuilder("g")
        x = b.input("x", (2,))
        y = b.relu(x)
        g = b.finish(y)
        with pytest.raises(ExecutionError, match="missing feed"):
            Executor(g).run({})

    def test_wrong_feed_shape(self):
        b = GraphBuilder("g")
        x = b.input("x", (2,))
        g = b.finish(b.relu(x))
        with pytest.raises(ExecutionError, match="shape"):
            Executor(g).run({"x": np.zeros(3, np.float32)})

    def test_unknown_op(self):
        g = Graph("g", inputs=[TensorInfo("x", (1,))],
                  outputs=[TensorInfo("y", (1,))])
        g.add_node(Node("NoSuchOp", ["x"], ["y"]))
        with pytest.raises(ExecutionError, match="no executor"):
            Executor(g).run({"x": np.zeros(1, np.float32)})

    def test_weights_cached_across_runs(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 4))
        y = b.linear(x, 3, name="fc")
        g = b.finish(y)
        ex = Executor(g)
        r1 = ex.run({"x": np.ones((2, 4), np.float32)})[y]
        r2 = ex.run({"x": np.ones((2, 4), np.float32)})[y]
        np.testing.assert_array_equal(r1, r2)

    def test_fetch_intermediate(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        r = b.relu(x)
        y = b.node("Neg", [r])
        g = b.finish(y)
        res = Executor(g).run({"x": np.asarray([-1, 1, -2, 2], np.float32)},
                              fetch=[r])
        np.testing.assert_array_equal(res[r], [0, 1, 0, 2])
