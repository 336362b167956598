"""Hand-computed references for the ONNX edge cases fixed alongside the
differential harness: auto_pad resolution, pool divisor semantics, pool
attribute defaults, Shape/Slice/Flatten attribute handling, and binary
dtype promotion.  Each case also has a corpus twin under
``tests/check/corpus/`` replayed by ``proof check``."""
import math

import numpy as np
import pytest

from repro.ir.executor import Executor
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
from repro.ir.tensor import DataType, Initializer, TensorInfo


def make_graph(shape, nodes, inits=(), dtype=DataType.FLOAT32):
    g = Graph(name="t", inputs=[TensorInfo("x", shape, dtype)],
              nodes=nodes, initializers=list(inits))
    infer_shapes(g)
    consumed = {i for n in g.nodes for i in n.inputs if i}
    leaves = [o for n in g.nodes for o in n.outputs if o not in consumed]
    g.outputs = [g.value_info[name] for name in leaves]
    return g


def run_one(shape, nodes, feed, inits=()):
    g = make_graph(shape, nodes, inits)
    out_name = g.outputs[0].name
    result = Executor(g).run({"x": feed})[out_name]
    inferred = g.value_info[out_name]
    assert result.shape == inferred.shape, \
        f"executor {result.shape} != inferred {inferred.shape}"
    assert result.dtype == inferred.dtype.to_numpy()
    return result


def ref_avgpool(x, kernel, strides, pads, ceil_mode, count_include_pad):
    """Scalar-loop AveragePool following the ONNX operator spec."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = strides
    ph0, pw0, ph1, pw1 = pads

    def out_size(size, k, s, pb, pe):
        num = size + pb + pe - k
        o = (math.ceil(num / s) if ceil_mode else num // s) + 1
        if ceil_mode and (o - 1) * s >= size + pb:
            o -= 1
        return o

    oh, ow = out_size(h, kh, sh, ph0, ph1), out_size(w, kw, sw, pw0, pw1)
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            total = np.zeros((n, c), dtype=np.float64)
            cnt = 0
            for ki in range(kh):
                for kj in range(kw):
                    hi, wj = i * sh - ph0 + ki, j * sw - pw0 + kj
                    in_real = 0 <= hi < h and 0 <= wj < w
                    in_padded = (-ph0 <= hi < h + ph1
                                 and -pw0 <= wj < w + pw1)
                    if in_real:
                        total += x[:, :, hi, wj]
                    # overhang cells (outside even the padded extent) never
                    # contribute to the divisor; pad cells only do when
                    # count_include_pad is set
                    if in_padded and (count_include_pad or in_real):
                        cnt += 1
            out[:, :, i, j] = total / max(cnt, 1)
    return out.astype(x.dtype)


class TestSameLowerOddDims:
    def test_hand_computed_window_sums(self):
        # in 5, stride 2 -> out 3, total pad 1; SAME_LOWER puts the odd
        # pad cell at the *begin* side, SAME_UPPER at the end
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        w = Initializer(TensorInfo("w", (1, 1, 2, 2), DataType.FLOAT32),
                        np.ones((1, 1, 2, 2), dtype=np.float32))
        out = run_one((1, 1, 5, 5),
                      [Node("Conv", ["x", "w"], ["y"], name="conv",
                            attrs={"kernel_shape": [2, 2],
                                   "strides": [2, 2],
                                   "auto_pad": "SAME_LOWER"})],
                      x, inits=[w])
        expected = np.asarray([[0, 3, 7], [15, 36, 44], [35, 76, 84]],
                              dtype=np.float32).reshape(1, 1, 3, 3)
        np.testing.assert_array_equal(out, expected)

    def test_differs_from_same_upper(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
        outs = {}
        for mode in ("SAME_LOWER", "SAME_UPPER"):
            w = Initializer(TensorInfo("w", (1, 1, 2, 2), DataType.FLOAT32),
                            np.ones((1, 1, 2, 2), dtype=np.float32))
            outs[mode] = run_one(
                (1, 1, 5, 5),
                [Node("Conv", ["x", "w"], ["y"], name="conv",
                      attrs={"kernel_shape": [2, 2], "strides": [2, 2],
                             "auto_pad": mode})],
                x, inits=[w])
        assert outs["SAME_LOWER"].shape == outs["SAME_UPPER"].shape
        assert not np.array_equal(outs["SAME_LOWER"], outs["SAME_UPPER"])
        # SAME_UPPER window (0,0) covers rows/cols 0..1 fully
        assert outs["SAME_UPPER"][0, 0, 0, 0] == 0 + 1 + 5 + 6


class TestValidAutoPad:
    def test_valid_overrides_contradicting_pads(self):
        x = np.random.default_rng(0).standard_normal(
            (1, 1, 6, 6)).astype(np.float32)
        w_data = np.random.default_rng(1).standard_normal(
            (1, 1, 3, 3)).astype(np.float32)

        def conv(attrs):
            w = Initializer(TensorInfo("w", (1, 1, 3, 3), DataType.FLOAT32),
                            w_data)
            return run_one((1, 1, 6, 6),
                           [Node("Conv", ["x", "w"], ["y"], name="conv",
                                 attrs=attrs)], x, inits=[w])

        valid = conv({"kernel_shape": [3, 3], "auto_pad": "VALID",
                      "pads": [1, 1, 1, 1]})
        unpadded = conv({"kernel_shape": [3, 3]})
        assert valid.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(valid, unpadded)


class TestAveragePoolDivisor:
    def test_literal_padded_corners_exclude_pad(self):
        x = np.asarray([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        out = run_one((1, 1, 2, 2),
                      [Node("AveragePool", ["x"], ["y"], name="pool",
                            attrs={"kernel_shape": [2, 2], "strides": [2, 2],
                                   "pads": [1, 1, 1, 1],
                                   "count_include_pad": 0})], x)
        np.testing.assert_array_equal(
            out, np.asarray([[1, 2], [3, 4]],
                            dtype=np.float32).reshape(1, 1, 2, 2))

    def test_literal_padded_corners_include_pad(self):
        x = np.asarray([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        out = run_one((1, 1, 2, 2),
                      [Node("AveragePool", ["x"], ["y"], name="pool",
                            attrs={"kernel_shape": [2, 2], "strides": [2, 2],
                                   "pads": [1, 1, 1, 1],
                                   "count_include_pad": 1})], x)
        np.testing.assert_array_equal(
            out, np.asarray([[0.25, 0.5], [0.75, 1.0]],
                            dtype=np.float32).reshape(1, 1, 2, 2))

    def test_literal_ceil_overhang_never_counts(self):
        # ceil_mode overhang columns/rows lie outside even the padded
        # extent -> the divisor only sees the real cells
        x = (np.arange(9, dtype=np.float32) + 1).reshape(1, 1, 3, 3)
        out = run_one((1, 1, 3, 3),
                      [Node("AveragePool", ["x"], ["y"], name="pool",
                            attrs={"kernel_shape": [2, 2], "strides": [2, 2],
                                   "ceil_mode": 1,
                                   "count_include_pad": 1})], x)
        np.testing.assert_array_equal(
            out, np.asarray([[3.0, 4.5], [7.5, 9.0]],
                            dtype=np.float32).reshape(1, 1, 2, 2))

    @pytest.mark.parametrize("count_include_pad", [0, 1])
    @pytest.mark.parametrize("pads", [(0, 1, 1, 0), (1, 0, 0, 1),
                                      (1, 1, 1, 1)])
    def test_matches_loop_reference(self, pads, count_include_pad):
        x = np.random.default_rng(7).standard_normal(
            (2, 3, 5, 5)).astype(np.float32)
        out = run_one((2, 3, 5, 5),
                      [Node("AveragePool", ["x"], ["y"], name="pool",
                            attrs={"kernel_shape": [3, 3], "strides": [2, 2],
                                   "pads": list(pads), "ceil_mode": 1,
                                   "count_include_pad": count_include_pad})],
                      x)
        want = ref_avgpool(x, (3, 3), (2, 2), pads, 1, count_include_pad)
        assert out.shape == want.shape
        np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-6)


class TestPoolAttributeDefaults:
    def test_strides_default_to_one_not_kernel(self):
        x = (np.arange(9, dtype=np.float32) + 1).reshape(1, 1, 3, 3)
        out = run_one((1, 1, 3, 3),
                      [Node("MaxPool", ["x"], ["y"], name="pool",
                            attrs={"kernel_shape": [2, 2]})], x)
        np.testing.assert_array_equal(
            out, np.asarray([[5, 6], [8, 9]],
                            dtype=np.float32).reshape(1, 1, 2, 2))

    def test_dilations_stretch_the_window(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = run_one((1, 1, 4, 4),
                      [Node("MaxPool", ["x"], ["y"], name="pool",
                            attrs={"kernel_shape": [2, 2], "strides": [1, 1],
                                   "dilations": [2, 2]})], x)
        # window at (0,0) covers {0,2}x{0,2} -> max over x[0,0],x[0,2],
        # x[2,0],x[2,2] = 10
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == 10.0
        np.testing.assert_array_equal(
            out, np.asarray([[10, 11], [14, 15]],
                            dtype=np.float32).reshape(1, 1, 2, 2))


class TestShapeSliceFlatten:
    def test_shape_start_end_clamped(self):
        x = np.zeros((2, 3, 4, 5), dtype=np.float32)
        out = run_one((2, 3, 4, 5),
                      [Node("Shape", ["x"], ["dims"], name="shape",
                            attrs={"start": -2, "end": 7})], x)
        np.testing.assert_array_equal(out, np.asarray([4, 5], dtype=np.int64))

    def test_shape_empty_slice(self):
        x = np.zeros((2, 3), dtype=np.float32)
        out = run_one((2, 3),
                      [Node("Shape", ["x"], ["dims"], name="shape",
                            attrs={"start": 1, "end": 1})], x)
        assert out.shape == (0,)

    def test_slice_negative_step_full_reverse(self):
        x = np.arange(5, dtype=np.float32).reshape(1, 5)
        out = run_one((1, 5),
                      [Node("Slice", ["x"], ["y"], name="slice",
                            attrs={"starts": [7], "ends": [-8], "axes": [1],
                                   "steps": [-1]})], x)
        np.testing.assert_array_equal(out, x[:, ::-1])

    def test_flatten_negative_axis(self):
        x = np.zeros((2, 3, 4), dtype=np.float32)
        out = run_one((2, 3, 4),
                      [Node("Flatten", ["x"], ["y"], name="flat",
                            attrs={"axis": -1})], x)
        assert out.shape == (6, 4)


class TestBinaryDtypePromotion:
    def test_int_tensor_times_float_scalar_promotes(self):
        half = Initializer(TensorInfo("half", (), DataType.FLOAT32),
                           np.asarray(np.float32(0.5)))
        x = np.asarray([[2.0, 5.0]], dtype=np.float32)
        out = run_one((1, 2),
                      [Node("Cast", ["x"], ["ints"], name="cast",
                            attrs={"to": "int32"}),
                       Node("Mul", ["ints", "half"], ["y"], name="mul")],
                      x, inits=[half])
        assert out.dtype == np.float32
        np.testing.assert_array_equal(
            out, np.asarray([[1.0, 2.5]], dtype=np.float32))

    def test_int_int_stays_int(self):
        three = Initializer(TensorInfo("three", (), DataType.INT32),
                            np.asarray(np.int32(3)))
        x = np.asarray([[2.0, 5.0]], dtype=np.float32)
        out = run_one((1, 2),
                      [Node("Cast", ["x"], ["ints"], name="cast",
                            attrs={"to": "int32"}),
                       Node("Add", ["ints", "three"], ["y"], name="add")],
                      x, inits=[three])
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, np.asarray([[5, 8]]))
