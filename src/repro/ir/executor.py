"""Numpy reference executor for IR graphs.

Used by the test suite to check that graphs are semantically coherent
(shape inference agrees with actual execution) and by examples that
want real numbers.  It is a *reference* implementation: clarity over
speed, but the hot paths (convolution, matmul) are still vectorized —
convolution lowers to one im2col over all input channels and one
(batched, when grouped) ``matmul``, which is exactly the data layout
trick production kernels use.  It executes the model's own ONNX
nodes, one kernel per op: operator fusion is modelled by the backend
planner (:mod:`repro.backends.optimizer`), never executed.

Weights come from :func:`seeded_weights`: one read-only set per graph
and seed, drawn once and shared by every executor and
:class:`~repro.ir.plan.ExecutionPlan` built over that graph.
"""
from __future__ import annotations

import math
import threading
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph
from .node import Node
from .shape_inference import _pool_output_size, _same_pads, _shape_slice_bounds
from .tensor import DataType

__all__ = ["ExecutionError", "Executor", "seeded_weights"]


class ExecutionError(RuntimeError):
    """Raised when a graph cannot be executed."""


_EXEC: Dict[str, Callable[[Node, List[Optional[np.ndarray]]], List[np.ndarray]]] = {}


def _register(*op_types: str):
    def deco(fn):
        for op in op_types:
            _EXEC[op] = fn
        return fn
    return deco


def _one(x: np.ndarray) -> List[np.ndarray]:
    return [x]


# ---------------------------------------------------------------------------
# convolution (im2col) and pooling
# ---------------------------------------------------------------------------
def _resolve_pads_for_shape(node: Node, shape: Sequence[int],
                            kernel, strides, dilations) -> List[int]:
    """Resolve pads from attributes + auto_pad given the input *shape*.

    Split out from :func:`_resolve_pads` so compiled execution plans can
    resolve padding once at plan time from statically inferred shapes.
    """
    spatial = len(shape) - 2
    pads = list(node.ints_attr("pads")) or [0] * (2 * spatial)
    auto_pad = node.str_attr("auto_pad", "NOTSET")
    if auto_pad in ("SAME_UPPER", "SAME_LOWER"):
        pads = []
        ends = []
        for i in range(spatial):
            pb, pe = _same_pads(shape[2 + i], kernel[i], strides[i],
                                dilations[i], auto_pad == "SAME_UPPER")
            pads.append(pb)
            ends.append(pe)
        pads = pads + ends
    elif auto_pad == "VALID":
        # VALID overrides any pads attribute (matches shape inference)
        pads = [0] * (2 * spatial)
    return pads


def _resolve_pads(node: Node, x: np.ndarray, kernel, strides, dilations):
    return _resolve_pads_for_shape(node, x.shape, kernel, strides, dilations)


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph0: int, pw0: int, ph1: int, pw1: int, dh: int, dw: int,
            xp: Optional[np.ndarray] = None,
            cols: Optional[np.ndarray] = None,
            ) -> Tuple[np.ndarray, int, int]:
    """(N, C, H, W) -> ``(cols, out_h, out_w)`` where ``cols`` is the
    (N, C*kh*kw, outH*outW) patch matrix.

    ``xp``/``cols`` optionally supply preallocated scratch buffers (an
    execution plan's arena): ``xp`` must be a zero-initialized padded
    buffer whose border is never written (padding is constant zero, so a
    reused buffer stays correct), and ``cols`` a patch buffer of shape
    (N, C, kh, kw, outH, outW) that is fully overwritten here.
    """
    n, c, h, w = x.shape
    if xp is None and (ph0 or ph1 or pw0 or pw1):
        # zero border + interior copy: np.pad's values at a fraction of
        # its per-call overhead
        xp = np.zeros((n, c, h + ph0 + ph1, w + pw0 + pw1), dtype=x.dtype)
    if xp is None:
        xp = x
    else:
        xp[:, :, ph0:ph0 + h, pw0:pw0 + w] = x
    eff_kh, eff_kw = dh * (kh - 1) + 1, dw * (kw - 1) + 1
    out_h = (h + ph0 + ph1 - eff_kh) // sh + 1
    out_w = (w + pw0 + pw1 - eff_kw) // sw + 1
    if cols is None:
        cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        hi = i * dh
        for j in range(kw):
            wj = j * dw
            cols[:, :, i, j] = xp[:, :, hi:hi + sh * out_h:sh, wj:wj + sw * out_w:sw]
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


@_register("Conv")
def _exec_conv(node: Node, ins):
    x, w = ins[0], ins[1]
    b = ins[2] if len(ins) > 2 else None
    if x.ndim != 4:
        raise ExecutionError("reference Conv supports 2-D convolution only")
    kernel = list(node.ints_attr("kernel_shape")) or list(w.shape[2:])
    strides = list(node.ints_attr("strides")) or [1, 1]
    dilations = list(node.ints_attr("dilations")) or [1, 1]
    group = node.int_attr("group", 1)
    pads = _resolve_pads(node, x, kernel, strides, dilations)
    kh, kw = kernel
    sh, sw = strides
    dh, dw = dilations
    ph0, pw0, ph1, pw1 = pads
    n, c_in = x.shape[:2]
    c_out = w.shape[0]
    cg_out = c_out // group
    acc = x.dtype if x.dtype == np.float64 else np.float32
    cols, out_h, out_w = _im2col(x, kh, kw, sh, sw, ph0, pw0, ph1, pw1, dh, dw)
    hw = out_h * out_w
    if group == 1:
        y = np.matmul(w.reshape(c_out, -1).astype(acc)[None], cols.astype(acc))
    else:
        # the (n, C*kh*kw, M) columns regroup by reshape into per-group
        # (cg_in*kh*kw, M) blocks; one batched matmul runs the same
        # per-group GEMMs a loop over groups would
        colg = cols.reshape(n, group, -1, hw).transpose(1, 0, 2, 3)
        wg = w.reshape(group, cg_out, -1).astype(acc)
        y = np.matmul(wg[:, None], colg.astype(acc)).transpose(1, 0, 2, 3)
    y = y.reshape(n, c_out, out_h, out_w)
    if b is not None:
        y = y + b.reshape(1, -1, 1, 1).astype(acc)
    return _one(y.astype(x.dtype))


def _pool_geometry(node: Node, shape: Sequence[int]):
    """Static 2-D pooling geometry, shared by the executor and plans.

    Returns ``(kernel, strides, dilations, pads, out, extra)`` where
    ``out`` is the (out_h, out_w) spatial output and ``extra`` the
    per-dim ``ceil_mode`` overhang past the padded edge — extra cells
    that the last window covers but that hold no data and no padding.
    """
    kernel = list(node.ints_attr("kernel_shape"))
    spatial = len(kernel)
    strides = list(node.ints_attr("strides")) or [1] * spatial
    dilations = list(node.ints_attr("dilations")) or [1] * spatial
    pads = _resolve_pads_for_shape(node, shape, kernel, strides, dilations)
    ceil_mode = node.int_attr("ceil_mode", 0)
    out: List[int] = []
    extra: List[int] = []
    for i in range(spatial):
        size = shape[2 + i]
        pb, pe = pads[i], pads[spatial + i]
        o = _pool_output_size(size, kernel[i], strides[i], dilations[i],
                              pb, pe, ceil_mode)
        eff_k = dilations[i] * (kernel[i] - 1) + 1
        out.append(o)
        extra.append(max(0, (o - 1) * strides[i] + eff_k - (size + pb + pe)))
    return kernel, strides, dilations, pads, out, extra


def _avgpool_divisor(node: Node, shape: Sequence[int]) -> Optional[np.ndarray]:
    """Per-window divisor grid for AveragePool, or None for a plain mean.

    Policy: cells past the padded edge (``ceil_mode`` overhang) never
    count toward the divisor; explicit/auto padding counts only when
    ``count_include_pad=1``.  A plain mean (every window divides by the
    full kernel size) applies exactly when no window sees an uncounted
    cell.
    """
    (kernel, strides, dilations, pads, outs, extras) = \
        _pool_geometry(node, shape)
    kh, kw = kernel
    sh, sw = strides
    dh, dw = dilations
    ph0, pw0, ph1, pw1 = pads
    out_h, out_w = outs
    eh, ew = extras
    include_pad = bool(node.int_attr("count_include_pad", 0))
    padded = (ph0 | ph1 | pw0 | pw1) != 0
    overhang = (eh | ew) != 0
    if (include_pad or not padded) and not overhang:
        return None
    h, w = shape[2], shape[3]
    ones = np.zeros((1, 1, h + ph0 + ph1 + eh, w + pw0 + pw1 + ew),
                    dtype=np.float32)
    if include_pad:
        ones[:, :, :h + ph0 + ph1, :w + pw0 + pw1] = 1.0
    else:
        ones[:, :, ph0:ph0 + h, pw0:pw0 + w] = 1.0
    counts = np.zeros((1, 1, out_h, out_w), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            hi, wj = i * dh, j * dw
            counts += ones[:, :, hi:hi + sh * out_h:sh, wj:wj + sw * out_w:sw]
    return np.maximum(counts, 1.0)


@_register("MaxPool", "AveragePool")
def _exec_pool(node: Node, ins):
    x = ins[0]
    if x.ndim != 4:
        raise ExecutionError("reference pooling supports 2-D pooling only")
    (kernel, strides, dilations, pads, outs, extras) = \
        _pool_geometry(node, x.shape)
    kh, kw = kernel
    sh, sw = strides
    dh, dw = dilations
    ph0, pw0, ph1, pw1 = pads
    out_h, out_w = outs
    eh, ew = extras
    is_max = node.op_type == "MaxPool"
    fill = -np.inf if is_max else 0.0
    n, c, h, w = x.shape
    xp = np.full((n, c, h + ph0 + ph1 + eh, w + pw0 + pw1 + ew), fill,
                 dtype=np.float32)
    xp[:, :, ph0:ph0 + h, pw0:pw0 + w] = x
    stacks = np.empty((kh * kw, n, c, out_h, out_w), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            hi, wj = i * dh, j * dw
            stacks[i * kw + j] = xp[:, :, hi:hi + sh * out_h:sh,
                                    wj:wj + sw * out_w:sw]
    if is_max:
        y = stacks.max(axis=0)
    else:
        counts = _avgpool_divisor(node, x.shape)
        y = stacks.mean(axis=0) if counts is None \
            else stacks.sum(axis=0) / counts
    return _one(y.astype(x.dtype))


@_register("GlobalAveragePool")
def _exec_gap(node: Node, ins):
    x = ins[0]
    axes = tuple(range(2, x.ndim))
    return _one(x.mean(axis=axes, keepdims=True, dtype=np.float32).astype(x.dtype))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------
@_register("MatMul")
def _exec_matmul(node: Node, ins):
    a, b = ins
    acc = np.float64 if a.dtype == np.float64 else np.float32
    return _one(np.matmul(a.astype(acc), b.astype(acc)).astype(a.dtype))


@_register("Gemm")
def _exec_gemm(node: Node, ins):
    a, b = ins[0], ins[1]
    if node.int_attr("transA", 0):
        a = a.T
    if node.int_attr("transB", 0):
        b = b.T
    alpha = node.float_attr("alpha", 1.0)
    beta = node.float_attr("beta", 1.0)
    acc = np.float64 if a.dtype == np.float64 else np.float32
    y = alpha * np.matmul(a.astype(acc), b.astype(acc))
    if len(ins) > 2 and ins[2] is not None:
        y = y + beta * ins[2].astype(acc)
    return _one(y.astype(ins[0].dtype))


@_register("Einsum")
def _exec_einsum(node: Node, ins):
    return _one(np.einsum(node.str_attr("equation"), *ins))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------
@_register("BatchNormalization")
def _exec_bn(node: Node, ins):
    x, scale, bias, mean, var = ins[:5]
    eps = node.float_attr("epsilon", 1e-5)
    shape = [1, -1] + [1] * (x.ndim - 2)
    y = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) ** 2 + eps)
    return _one((y * scale.reshape(shape) + bias.reshape(shape)).astype(x.dtype))


@_register("LayerNormalization")
def _exec_ln(node: Node, ins):
    x = ins[0]
    axis = node.int_attr("axis", -1) % x.ndim
    eps = node.float_attr("epsilon", 1e-5)
    axes = tuple(range(axis, x.ndim))
    mu = x.mean(axis=axes, keepdims=True, dtype=np.float32)
    var = x.astype(np.float32).var(axis=axes, keepdims=True)
    y = (x - mu) / np.sqrt(var + eps)
    scale, bias = ins[1], ins[2] if len(ins) > 2 else None
    if scale is not None:
        y = y * scale
    if bias is not None:
        y = y + bias
    return _one(y.astype(x.dtype))


@_register("GroupNormalization")
def _exec_gn(node: Node, ins):
    x, scale, bias = ins[0], ins[1], ins[2]
    g = node.int_attr("num_groups")
    eps = node.float_attr("epsilon", 1e-5)
    n, c = x.shape[:2]
    xg = x.reshape(n, g, c // g, *x.shape[2:]).astype(np.float32)
    axes = tuple(range(2, xg.ndim))
    mu = xg.mean(axis=axes, keepdims=True)
    var = xg.var(axis=axes, keepdims=True)
    y = ((xg - mu) / np.sqrt(var + eps)).reshape(x.shape)
    shape = [1, -1] + [1] * (x.ndim - 2)
    return _one((y * scale.reshape(shape) + bias.reshape(shape)).astype(x.dtype))


# ---------------------------------------------------------------------------
# activations / unary
# ---------------------------------------------------------------------------
_UNARY = {
    "Relu": lambda x: np.maximum(x, 0),
    "Sigmoid": lambda x: 1.0 / (1.0 + np.exp(
        -np.clip(x.astype(np.float32), -60.0, 60.0))),
    "Tanh": np.tanh,
    "Exp": np.exp,
    "Log": np.log,
    "Sqrt": np.sqrt,
    "Neg": np.negative,
    "Abs": np.abs,
    "Floor": np.floor,
    "Ceil": np.ceil,
    "Round": np.round,
    "Reciprocal": np.reciprocal,
    "Sign": np.sign,
    "Identity": lambda x: x,
    "Erf": None,  # special-cased (scipy-free implementation below)
    "HardSwish": lambda x: x * np.clip(x / 6.0 + 0.5, 0.0, 1.0),
    "HardSigmoid": lambda x: np.clip(x / 6.0 + 0.5, 0.0, 1.0),
    "Softplus": lambda x: np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0),
    "Mish": lambda x: x * np.tanh(np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0)),
    "Gelu": None,
}


def _erf(x: np.ndarray) -> np.ndarray:
    """Abramowitz & Stegun 7.1.26 rational approximation (|err| < 1.5e-7)."""
    x32 = x.astype(np.float32)
    sign = np.sign(x32)
    a = np.abs(x32)
    t = 1.0 / (1.0 + 0.3275911 * a)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (1.421413741
               + t * (-1.453152027 + t * 1.061405429))))
    return sign * (1.0 - poly * np.exp(-a * a))


_UNARY["Erf"] = _erf
_UNARY["Gelu"] = lambda x: 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))


@_register(*_UNARY.keys())
def _exec_unary(node: Node, ins):
    x = ins[0]
    return _one(_UNARY[node.op_type](x).astype(x.dtype))


@_register("LeakyRelu")
def _exec_leaky(node: Node, ins):
    x = ins[0]
    alpha = node.float_attr("alpha", 0.01)
    return _one(np.where(x >= 0, x, alpha * x).astype(x.dtype))


@_register("Clip")
def _exec_clip(node: Node, ins):
    x = ins[0]
    lo = ins[1] if len(ins) > 1 and ins[1] is not None else None
    hi = ins[2] if len(ins) > 2 and ins[2] is not None else None
    y = x
    if lo is not None:
        y = np.maximum(y, lo)
    if hi is not None:
        y = np.minimum(y, hi)
    return _one(y.astype(x.dtype))


@_register("Softmax", "LogSoftmax")
def _exec_softmax(node: Node, ins):
    x = ins[0].astype(np.float32)
    axis = node.int_attr("axis", -1)
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)
    if node.op_type == "LogSoftmax":
        s = np.log(np.maximum(s, 1e-30))
    return _one(s.astype(ins[0].dtype))


@_register("Dropout")
def _exec_dropout(node: Node, ins):
    return _one(ins[0])  # inference mode: identity


@_register("QuantizeLinear")
def _exec_quantize(node: Node, ins):
    x, scale = ins[0], np.asarray(ins[1], dtype=np.float32)
    zero = np.asarray(ins[2], dtype=np.int8) if len(ins) > 2 \
        and ins[2] is not None else np.int8(0)
    q = np.round(x / scale) + zero.astype(np.float32)
    return _one(np.clip(q, -128, 127).astype(np.int8))


@_register("DequantizeLinear")
def _exec_dequantize(node: Node, ins):
    x, scale = ins[0], np.asarray(ins[1], dtype=np.float32)
    zero = np.asarray(ins[2], dtype=np.float32) if len(ins) > 2 \
        and ins[2] is not None else np.float32(0)
    return _one(((x.astype(np.float32) - zero) * scale).astype(np.float32))


# ---------------------------------------------------------------------------
# binary / ternary elementwise
# ---------------------------------------------------------------------------
_BINARY = {
    "Add": np.add, "Sub": np.subtract, "Mul": np.multiply,
    "Div": lambda a, b: a // b if np.issubdtype(np.asarray(a).dtype, np.integer)
                        and np.issubdtype(np.asarray(b).dtype, np.integer) else a / b,
    "Pow": np.power, "Min": np.minimum, "Max": np.maximum, "Mod": np.mod,
}


@_register(*_BINARY.keys())
def _exec_binary(node: Node, ins):
    a, b = ins
    # promote like shape inference: floats win, else the left operand
    a_float = np.issubdtype(a.dtype, np.floating)
    b_float = np.issubdtype(b.dtype, np.floating)
    dtype = a.dtype if a_float or not b_float else b.dtype
    return _one(np.asarray(_BINARY[node.op_type](a, b)).astype(dtype))


@_register("Equal", "Greater", "Less", "GreaterOrEqual", "LessOrEqual")
def _exec_compare(node: Node, ins):
    fn = {"Equal": np.equal, "Greater": np.greater, "Less": np.less,
          "GreaterOrEqual": np.greater_equal, "LessOrEqual": np.less_equal}
    return _one(fn[node.op_type](ins[0], ins[1]))


@_register("Where")
def _exec_where(node: Node, ins):
    return _one(np.where(ins[0], ins[1], ins[2]).astype(ins[1].dtype))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------
@_register("Shape")
def _exec_shape(node: Node, ins):
    rank = ins[0].ndim
    start, end = _shape_slice_bounds(
        rank, node.int_attr("start", 0), node.int_attr("end", rank))
    return _one(np.asarray(ins[0].shape[start:end], dtype=np.int64))


@_register("Reshape")
def _exec_reshape(node: Node, ins):
    x = ins[0]
    if "shape" in node.attrs:
        target = list(node.ints_attr("shape"))
    else:
        target = [int(v) for v in ins[1].tolist()]
    resolved = [x.shape[i] if d == 0 else d for i, d in enumerate(target)]
    return _one(x.reshape(resolved))


@_register("Flatten")
def _exec_flatten(node: Node, ins):
    x = ins[0]
    axis = node.int_attr("axis", 1)
    outer = int(np.prod(x.shape[:axis])) if axis else 1
    return _one(x.reshape(outer, -1))


@_register("Transpose")
def _exec_transpose(node: Node, ins):
    x = ins[0]
    perm = list(node.ints_attr("perm")) or list(range(x.ndim))[::-1]
    return _one(np.ascontiguousarray(np.transpose(x, perm)))


@_register("Concat")
def _exec_concat(node: Node, ins):
    return _one(np.concatenate([i for i in ins if i is not None],
                               axis=node.int_attr("axis")))


@_register("Split")
def _exec_split(node: Node, ins):
    x = ins[0]
    axis = node.int_attr("axis", 0)
    if "split" in node.attrs:
        sizes = list(node.ints_attr("split"))
    elif len(ins) > 1 and ins[1] is not None:
        sizes = [int(v) for v in ins[1].tolist()]
    else:
        sizes = [x.shape[axis] // len(node.outputs)] * len(node.outputs)
    idx = np.cumsum(sizes)[:-1]
    return list(np.split(x, idx, axis=axis))


@_register("Slice")
def _exec_slice(node: Node, ins):
    x = ins[0]
    if "starts" in node.attrs:
        starts = list(node.ints_attr("starts"))
        ends = list(node.ints_attr("ends"))
        axes = list(node.ints_attr("axes")) or list(range(len(starts)))
        steps = list(node.ints_attr("steps")) or [1] * len(starts)
    else:
        starts = [int(v) for v in ins[1].tolist()]
        ends = [int(v) for v in ins[2].tolist()]
        axes = [int(v) for v in ins[3].tolist()] if len(ins) > 3 and ins[3] is not None \
            else list(range(len(starts)))
        steps = [int(v) for v in ins[4].tolist()] if len(ins) > 4 and ins[4] is not None \
            else [1] * len(starts)
    slicers = [slice(None)] * x.ndim
    for st, en, ax, sp in zip(starts, ends, axes, steps):
        slicers[ax % x.ndim] = slice(st, en, sp)
    return _one(np.ascontiguousarray(x[tuple(slicers)]))


@_register("Squeeze")
def _exec_squeeze(node: Node, ins):
    x = ins[0]
    if "axes" in node.attrs:
        axes = list(node.ints_attr("axes"))
    elif len(ins) > 1 and ins[1] is not None:
        axes = [int(v) for v in ins[1].tolist()]
    else:
        axes = [i for i, d in enumerate(x.shape) if d == 1]
    return _one(np.squeeze(x, axis=tuple(a % x.ndim for a in axes)))


@_register("Unsqueeze")
def _exec_unsqueeze(node: Node, ins):
    x = ins[0]
    if "axes" in node.attrs:
        axes = list(node.ints_attr("axes"))
    else:
        axes = [int(v) for v in ins[1].tolist()]
    out_rank = x.ndim + len(axes)
    for a in sorted(a % out_rank for a in axes):
        x = np.expand_dims(x, a)
    return _one(x)


@_register("Expand")
def _exec_expand(node: Node, ins):
    x = ins[0]
    target = [int(v) for v in ins[1].tolist()]
    return _one(np.broadcast_to(x, np.broadcast_shapes(x.shape, tuple(target))).copy())


@_register("Tile")
def _exec_tile(node: Node, ins):
    return _one(np.tile(ins[0], [int(v) for v in ins[1].tolist()]))


@_register("Pad")
def _exec_pad(node: Node, ins):
    x = ins[0]
    if "pads" in node.attrs:
        pads = list(node.ints_attr("pads"))
    else:
        pads = [int(v) for v in ins[1].tolist()]
    value = 0.0
    if len(ins) > 2 and ins[2] is not None:
        value = float(np.asarray(ins[2]).reshape(-1)[0])
    pairs = [(pads[i], pads[x.ndim + i]) for i in range(x.ndim)]
    mode = node.str_attr("mode", "constant")
    if mode == "constant":
        return _one(np.pad(x, pairs, constant_values=value))
    return _one(np.pad(x, pairs, mode="reflect" if mode == "reflect" else "edge"))


@_register("Gather")
def _exec_gather(node: Node, ins):
    data, idx = ins
    return _one(np.take(data, idx.astype(np.int64), axis=node.int_attr("axis", 0)))


@_register("Resize")
def _exec_resize(node: Node, ins):
    x = ins[0]
    if "sizes" in node.attrs:
        sizes = list(node.ints_attr("sizes"))
    elif len(ins) > 3 and ins[3] is not None:
        sizes = [int(v) for v in ins[3].tolist()]
    else:
        scales = ([float(v) for v in node.attr("scales")] if "scales" in node.attrs
                  else [float(v) for v in ins[2].tolist()])
        sizes = [int(math.floor(d * s)) for d, s in zip(x.shape, scales)]
    # nearest-neighbour only (what UNet upsampling uses)
    idx = [np.minimum((np.arange(sizes[d]) * x.shape[d] / sizes[d]).astype(np.int64),
                      x.shape[d] - 1) for d in range(x.ndim)]
    out = x
    for d in range(x.ndim):
        if sizes[d] != x.shape[d]:
            out = np.take(out, idx[d], axis=d)
    return _one(out)


@_register("Cast")
def _exec_cast(node: Node, ins):
    to = node.attr("to")
    dtype = DataType.parse(to) if isinstance(to, str) else DataType(to)
    return _one(ins[0].astype(dtype.to_numpy()))


@_register("Constant")
def _exec_constant(node: Node, ins):
    return _one(np.asarray(node.attr("value")))


@_register("ConstantOfShape")
def _exec_constant_of_shape(node: Node, ins):
    shape = [int(v) for v in ins[0].tolist()]
    fill = np.asarray(node.attr("value") if node.attr("value") is not None else np.float32(0))
    return _one(np.full(shape, fill.reshape(-1)[0], dtype=fill.dtype))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------
@_register("ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd")
def _exec_reduce(node: Node, ins):
    x = ins[0]
    if "axes" in node.attrs:
        axes = tuple(a % x.ndim for a in node.ints_attr("axes"))
    elif len(ins) > 1 and ins[1] is not None:
        axes = tuple(int(v) % x.ndim for v in ins[1].tolist())
    else:
        axes = tuple(range(x.ndim))
    keep = bool(node.int_attr("keepdims", 1))
    fn = {"ReduceMean": np.mean, "ReduceSum": np.sum, "ReduceMax": np.max,
          "ReduceMin": np.min, "ReduceProd": np.prod}[node.op_type]
    return _one(np.asarray(fn(x, axis=axes, keepdims=keep)).astype(x.dtype))


@_register("Elu")
def _exec_elu(node: Node, ins):
    x = ins[0]
    alpha = node.float_attr("alpha", 1.0)
    return _one(np.where(x > 0, x, alpha * (np.exp(
        np.minimum(x, 0.0)) - 1)).astype(x.dtype))


@_register("Selu")
def _exec_selu(node: Node, ins):
    x = ins[0]
    alpha = node.float_attr("alpha", 1.6732632)
    gamma = node.float_attr("gamma", 1.0507010)
    return _one((gamma * np.where(x > 0, x, alpha * (np.exp(
        np.minimum(x, 0.0)) - 1))).astype(x.dtype))


@_register("Celu")
def _exec_celu(node: Node, ins):
    x = ins[0]
    alpha = node.float_attr("alpha", 1.0)
    return _one(np.maximum(x, 0) + np.minimum(
        0, alpha * (np.exp(np.minimum(x, 0) / alpha) - 1)).astype(x.dtype))


@_register("PRelu")
def _exec_prelu(node: Node, ins):
    x, slope = ins
    return _one(np.where(x >= 0, x, slope * x).astype(x.dtype))


@_register("DepthToSpace")
def _exec_depth_to_space(node: Node, ins):
    x = ins[0]
    bs = node.int_attr("blocksize")
    n, c, h, w = x.shape
    mode = node.str_attr("mode", "DCR")
    if mode == "DCR":
        y = x.reshape(n, bs, bs, c // (bs * bs), h, w)
        y = y.transpose(0, 3, 4, 1, 5, 2)
    else:  # CRD
        y = x.reshape(n, c // (bs * bs), bs, bs, h, w)
        y = y.transpose(0, 1, 4, 2, 5, 3)
    return _one(np.ascontiguousarray(y.reshape(n, c // (bs * bs),
                                               h * bs, w * bs)))


@_register("SpaceToDepth")
def _exec_space_to_depth(node: Node, ins):
    x = ins[0]
    bs = node.int_attr("blocksize")
    n, c, h, w = x.shape
    y = x.reshape(n, c, h // bs, bs, w // bs, bs)
    y = y.transpose(0, 3, 5, 1, 2, 4)
    return _one(np.ascontiguousarray(y.reshape(n, c * bs * bs,
                                               h // bs, w // bs)))


@_register("CumSum")
def _exec_cumsum(node: Node, ins):
    x = ins[0]
    axis = int(np.asarray(ins[1]).reshape(-1)[0]) if len(ins) > 1 \
        and ins[1] is not None else 0
    y = np.cumsum(x, axis=axis)
    if node.int_attr("reverse", 0):
        y = np.flip(np.cumsum(np.flip(x, axis), axis=axis), axis)
    return _one(y.astype(x.dtype))


@_register("Trilu")
def _exec_trilu(node: Node, ins):
    x = ins[0]
    k = int(np.asarray(ins[1]).reshape(-1)[0]) if len(ins) > 1 \
        and ins[1] is not None else 0
    fn = np.triu if node.int_attr("upper", 1) else np.tril
    return _one(fn(x, k).astype(x.dtype))


@_register("OneHot")
def _exec_onehot(node: Node, ins):
    indices, depth, values = ins
    depth = int(np.asarray(depth).reshape(-1)[0])
    off, on = np.asarray(values).reshape(-1)[:2]
    axis = node.int_attr("axis", -1)
    idx = indices.astype(np.int64) % depth
    eye = np.where(np.arange(depth) == idx[..., None], on, off)
    out_rank = indices.ndim + 1
    pos = axis % out_rank
    return _one(np.moveaxis(eye, -1, pos))


@_register("Range")
def _exec_range(node: Node, ins):
    start, limit, delta = (np.asarray(v).reshape(-1)[0] for v in ins)
    return _one(np.arange(start, limit, delta))


@_register("TopK")
def _exec_topk(node: Node, ins):
    x, k = ins[0], int(np.asarray(ins[1]).reshape(-1)[0])
    axis = node.int_attr("axis", -1) % x.ndim
    largest = node.int_attr("largest", 1)
    order = np.argsort(x, axis=axis)
    if largest:
        order = np.flip(order, axis)
    idx = np.take(order, np.arange(k), axis=axis)
    vals = np.take_along_axis(x, idx, axis=axis)
    return [vals, idx.astype(np.int64)]


@_register("GatherElements")
def _exec_gather_elements(node: Node, ins):
    data, idx = ins
    axis = node.int_attr("axis", 0)
    return _one(np.take_along_axis(data, idx.astype(np.int64), axis=axis))


@_register("ArgMax", "ArgMin")
def _exec_argreduce(node: Node, ins):
    x = ins[0]
    axis = node.int_attr("axis", 0)
    fn = np.argmax if node.op_type == "ArgMax" else np.argmin
    y = fn(x, axis=axis)
    if node.int_attr("keepdims", 1):
        y = np.expand_dims(y, axis)
    return _one(y.astype(np.int64))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
#: the one weight set held between runtimes, ``(key, weights)``
_held_weights: Optional[Tuple[tuple, Mapping[str, np.ndarray]]] = None
_held_lock = threading.Lock()


def seeded_weights(graph: Graph, seed: int = 0) -> Mapping[str, np.ndarray]:
    """The graph's weights drawn from ``np.random.default_rng(seed)``.

    The stream walks the initializers in graph order through
    :meth:`~repro.ir.tensor.Initializer.materialize`, so an initializer
    that carries ``data`` consumes no draw and maps to its own array.
    Freshly drawn arrays are read-only: every executor and plan built
    over the graph with this seed shares them.  One set is held at a
    time, keyed by the seed and each initializer's name, shape, dtype
    and ``data`` object, so a :meth:`Graph.copy` shares the set and a
    graph whose initializer data changed draws afresh.  The held set is
    released before the next one is drawn, so the memo never keeps two
    sets alive at once.
    """
    global _held_weights
    key = (seed, tuple(
        (name, init.info.shape, init.info.dtype,
         None if init.data is None else id(init.data))
        for name, init in graph.initializers.items()))
    with _held_lock:
        # the held set references every keyed ``data`` array, so their
        # ids cannot be reused while the key is compared against them
        if _held_weights is not None and _held_weights[0] == key:
            return _held_weights[1]
        _held_weights = None
        rng = np.random.default_rng(seed)
        weights: Dict[str, np.ndarray] = {}
        for name, init in graph.initializers.items():
            arr = init.materialize(rng)
            if init.data is None:
                arr.flags.writeable = False
            weights[name] = arr
        _held_weights = (key, MappingProxyType(weights))
        return _held_weights[1]


class Executor:
    """Executes a graph on its seeded weight set (:func:`seeded_weights`).

    An executor keeps the set it first ran with; a graph that gained
    initializers since then gets a fresh set on the next run.
    """

    def __init__(self, graph: Graph, seed: int = 0) -> None:
        self.graph = graph
        self.seed = seed
        self._weights: Mapping[str, np.ndarray] = {}

    def _observe(self, node: Node, ins: List[Optional[np.ndarray]],
                 outs: List[np.ndarray]) -> None:
        """Per-node hook with the actual operands; default is a no-op.

        Subclasses (the instrumented counting executor in
        :mod:`repro.check`) override this to meter real work without
        touching the execution path.
        """

    def run(self, feeds: Dict[str, np.ndarray],
            fetch: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Execute and return the requested tensors (default: graph outputs)."""
        env: Dict[str, np.ndarray] = {}
        for t in self.graph.inputs:
            if t.name not in feeds:
                raise ExecutionError(f"missing feed for input {t.name!r}")
            arr = np.asarray(feeds[t.name])
            if tuple(arr.shape) != t.shape:
                raise ExecutionError(
                    f"feed {t.name!r}: shape {arr.shape} != declared {t.shape}")
            env[t.name] = arr
        if not self._weights.keys() >= self.graph.initializers.keys():
            self._weights = seeded_weights(self.graph, self.seed)
        for name in self.graph.initializers:
            env[name] = self._weights[name]
        for node in self.graph.toposort():
            fn = _EXEC.get(node.op_type)
            if fn is None:
                raise ExecutionError(f"no executor for op type {node.op_type!r}")
            ins = [env[i] if i else None for i in node.inputs]
            try:
                outs = fn(node, ins)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"execution failed at {node.name or node.op_type!r}: {exc}"
                ) from exc
            self._observe(node, ins, outs)
            for oname, oval in zip(node.outputs, outs):
                env[oname] = oval
        names = list(fetch) if fetch is not None else self.graph.output_names
        missing = [n for n in names if n not in env]
        if missing:
            raise ExecutionError(f"requested tensors never produced: {missing}")
        return {n: env[n] for n in names}


def supported_ops() -> List[str]:
    return sorted(_EXEC)
