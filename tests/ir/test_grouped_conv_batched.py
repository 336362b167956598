"""The reference grouped convolution (one im2col, one batched matmul) is
byte-identical to a convolution run one group at a time.

The oracle below is the per-group loop the executor used to run: an
im2col and a matmul per group, concatenated along channels.
"""
import numpy as np
import pytest

from repro.ir.executor import _exec_conv, _im2col, _resolve_pads
from repro.ir.node import Node

C = 8


def per_group_conv(node, x, w, b):
    kernel = list(node.ints_attr("kernel_shape")) or list(w.shape[2:])
    strides = list(node.ints_attr("strides")) or [1, 1]
    dilations = list(node.ints_attr("dilations")) or [1, 1]
    group = node.int_attr("group", 1)
    pads = _resolve_pads(node, x, kernel, strides, dilations)
    (kh, kw), (sh, sw), (dh, dw) = kernel, strides, dilations
    ph0, pw0, ph1, pw1 = pads
    n, c_in = x.shape[:2]
    cg_in, cg_out = c_in // group, w.shape[0] // group
    acc = x.dtype if x.dtype == np.float64 else np.float32
    outs = []
    for g in range(group):
        xg = x[:, g * cg_in:(g + 1) * cg_in]
        wg = w[g * cg_out:(g + 1) * cg_out].reshape(cg_out, -1).astype(acc)
        cols, out_h, out_w = _im2col(xg, kh, kw, sh, sw, ph0, pw0, ph1, pw1,
                                     dh, dw)
        y = np.matmul(wg[None], cols.astype(acc))
        outs.append(y.reshape(n, cg_out, out_h, out_w))
    y = np.concatenate(outs, axis=1)
    if b is not None:
        y = y + b.reshape(1, -1, 1, 1).astype(acc)
    return y.astype(x.dtype)


GEOMETRIES = [
    dict(kernel_shape=[3, 3]),
    dict(kernel_shape=[3, 3], strides=[2, 2], pads=[1, 1, 1, 1]),
    dict(kernel_shape=[3, 2], strides=[2, 1], pads=[0, 1, 2, 1]),
    dict(kernel_shape=[3, 3], dilations=[2, 1], pads=[2, 0, 1, 2]),
    dict(kernel_shape=[2, 3], dilations=[2, 2], strides=[1, 2],
         auto_pad="SAME_UPPER"),
    dict(kernel_shape=[4, 4], strides=[2, 2], auto_pad="SAME_LOWER"),
    dict(kernel_shape=[3, 3], strides=[2, 2], auto_pad="VALID"),
    dict(kernel_shape=[1, 1], strides=[2, 2]),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
@pytest.mark.parametrize("group,c_out", [(2, 6), (4, 8), (C, C), (C, 2 * C)],
                         ids=["g2", "g4", "depthwise", "depthwise-x2"])
def test_batched_grouped_conv_matches_per_group_loop(group, c_out, geometry,
                                                      dtype):
    attrs = dict(GEOMETRIES[geometry], group=group)
    kh, kw = attrs["kernel_shape"]
    rng = np.random.default_rng([group, c_out, geometry])
    x = rng.standard_normal((2, C, 11, 9)).astype(dtype)
    w = rng.standard_normal((c_out, C // group, kh, kw)).astype(dtype)
    for b in (None, rng.standard_normal(c_out).astype(dtype)):
        node = Node("Conv", ["x", "w"] + ([] if b is None else ["b"]), ["y"],
                    attrs=attrs)
        ins = [x, w] + ([] if b is None else [b])
        (got,) = _exec_conv(node, ins)
        want = per_group_conv(node, x, w, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

