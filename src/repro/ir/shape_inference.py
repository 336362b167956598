"""Static shape & dtype inference over the IR.

Mirrors ONNX shape-inference semantics for the operator subset used by
the model zoo.  Inference walks the graph in topological order and
fills ``graph.value_info`` with a :class:`TensorInfo` for every tensor.

Shape-producing chains (``Shape -> Gather -> Unsqueeze -> Concat ->
Reshape`` and friends) are handled by a light constant propagator: any
small integer tensor whose value can be computed statically is tracked,
so ``Reshape``/``Slice``/``Expand`` with computed shape operands infer
exactly like they would at runtime.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph, GraphError
from .node import Node
from .tensor import DataType, TensorInfo

__all__ = ["infer_shapes", "ShapeInferenceError", "broadcast_shapes", "conv_output_spatial"]

# Constant tensors above this element count are not propagated (they are
# weights, not shape arithmetic).
_MAX_PROP_ELEMS = 4096


class ShapeInferenceError(GraphError):
    """Raised when shapes cannot be inferred or are inconsistent."""


def broadcast_shapes(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """Numpy-style broadcasting of two shapes."""
    ra, rb = list(a)[::-1], list(b)[::-1]
    out: List[int] = []
    for i in range(max(len(ra), len(rb))):
        da = ra[i] if i < len(ra) else 1
        db = rb[i] if i < len(rb) else 1
        if da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise ShapeInferenceError(f"cannot broadcast {tuple(a)} with {tuple(b)}")
    return tuple(out[::-1])


def conv_output_spatial(
    in_size: int, kernel: int, stride: int, pad_begin: int, pad_end: int, dilation: int = 1
) -> int:
    """Output extent of one convolution/pooling spatial dimension."""
    eff_kernel = dilation * (kernel - 1) + 1
    out = (in_size + pad_begin + pad_end - eff_kernel) // stride + 1
    if out <= 0:
        raise ShapeInferenceError(
            f"non-positive conv output dim: in={in_size} k={kernel} "
            f"s={stride} pads=({pad_begin},{pad_end}) d={dilation}"
        )
    return out


class _Ctx:
    """Per-run inference state: known tensor infos and constant values."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.infos: Dict[str, TensorInfo] = {}
        self.consts: Dict[str, np.ndarray] = {}
        for t in graph.inputs:
            self.infos[t.name] = t
        for init in graph.initializers.values():
            self.infos[init.name] = init.info
            if init.data is not None and init.info.numel <= _MAX_PROP_ELEMS:
                self.consts[init.name] = np.asarray(init.data)

    def info(self, name: str) -> TensorInfo:
        if name not in self.infos:
            raise ShapeInferenceError(f"tensor {name!r} has no inferred info yet")
        return self.infos[name]

    def const(self, name: str) -> Optional[np.ndarray]:
        return self.consts.get(name)

    def require_const(self, name: str, what: str) -> np.ndarray:
        val = self.const(name)
        if val is None:
            raise ShapeInferenceError(
                f"{what}: operand {name!r} must be statically known"
            )
        return val

    def set(self, name: str, info: TensorInfo, value: Optional[np.ndarray] = None) -> None:
        self.infos[name] = info
        if value is not None and value.size <= _MAX_PROP_ELEMS:
            self.consts[name] = value


_InferFn = Callable[[Node, _Ctx], None]
_REGISTRY: Dict[str, _InferFn] = {}


def _register(*op_types: str) -> Callable[[_InferFn], _InferFn]:
    def deco(fn: _InferFn) -> _InferFn:
        for op in op_types:
            _REGISTRY[op] = fn
        return fn
    return deco


def _out(node: Node, ctx: _Ctx, shape: Sequence[int], dtype: DataType,
         value: Optional[np.ndarray] = None, idx: int = 0) -> None:
    name = node.outputs[idx]
    ctx.set(name, TensorInfo(name, tuple(shape), dtype), value)


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------
def _spatial_attrs(node: Node, spatial_rank: int, kernel: Sequence[int]):
    strides = list(node.ints_attr("strides")) or [1] * spatial_rank
    dilations = list(node.ints_attr("dilations")) or [1] * spatial_rank
    pads = list(node.ints_attr("pads")) or [0] * (2 * spatial_rank)
    auto_pad = node.str_attr("auto_pad", "NOTSET")
    if auto_pad in ("SAME_UPPER", "SAME_LOWER"):
        # resolved per-dimension by the callers via _same_pads
        pads = None  # type: ignore[assignment]
    elif auto_pad == "VALID":
        # VALID overrides any pads attribute (ONNX: "no padding")
        pads = [0] * (2 * spatial_rank)
    return strides, dilations, pads, auto_pad


def _same_pads(in_size: int, kernel: int, stride: int, dilation: int, upper: bool):
    out = math.ceil(in_size / stride)
    eff_kernel = dilation * (kernel - 1) + 1
    total = max(0, (out - 1) * stride + eff_kernel - in_size)
    if upper:
        return total // 2, total - total // 2
    return total - total // 2, total // 2


def _pool_output_size(in_size: int, kernel: int, stride: int, dilation: int,
                      pad_begin: int, pad_end: int, ceil_mode: int) -> int:
    """One spatial dim of a pool output (shared with the executor/plans).

    ``ceil_mode`` rounds up, but the last window must still start inside
    the input or its begin padding — otherwise it would read end padding
    only, so it is dropped (the ONNX/PyTorch rule).
    """
    eff_kernel = dilation * (kernel - 1) + 1
    num = in_size + pad_begin + pad_end - eff_kernel
    out = (math.ceil(num / stride) if ceil_mode else num // stride) + 1
    if ceil_mode and (out - 1) * stride >= in_size + pad_begin:
        out -= 1
    return out


def _shape_slice_bounds(rank: int, start: int, end: int):
    """Clamped ``[start, end)`` dim range for ONNX ``Shape`` start/end."""
    if start < 0:
        start += rank
    start = min(max(start, 0), rank)
    if end < 0:
        end += rank
    end = min(max(end, 0), rank)
    return start, max(start, end)


@_register("Conv")
def _infer_conv(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    w = ctx.info(node.inputs[1])
    if x.rank < 3:
        raise ShapeInferenceError(f"Conv input must be rank>=3, got {x.shape}")
    spatial = x.rank - 2
    kernel = list(node.ints_attr("kernel_shape")) or list(w.shape[2:])
    strides, dilations, pads, auto_pad = _spatial_attrs(node, spatial, kernel)
    group = node.int_attr("group", 1)
    if w.shape[1] * group != x.shape[1]:
        raise ShapeInferenceError(
            f"Conv {node.name!r}: weight channels {w.shape[1]}*g{group} != "
            f"input channels {x.shape[1]}"
        )
    out_shape = [x.shape[0], w.shape[0]]
    for i in range(spatial):
        if pads is None:
            pb, pe = _same_pads(x.shape[2 + i], kernel[i], strides[i],
                                dilations[i], auto_pad == "SAME_UPPER")
        else:
            pb, pe = pads[i], pads[spatial + i]
        out_shape.append(
            conv_output_spatial(x.shape[2 + i], kernel[i], strides[i], pb, pe, dilations[i])
        )
    _out(node, ctx, out_shape, x.dtype)


@_register("ConvTranspose")
def _infer_conv_transpose(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    w = ctx.info(node.inputs[1])
    spatial = x.rank - 2
    kernel = list(node.ints_attr("kernel_shape")) or list(w.shape[2:])
    strides = list(node.ints_attr("strides")) or [1] * spatial
    pads = list(node.ints_attr("pads")) or [0] * (2 * spatial)
    out_pads = list(node.ints_attr("output_padding")) or [0] * spatial
    group = node.int_attr("group", 1)
    out_shape = [x.shape[0], w.shape[1] * group]
    for i in range(spatial):
        out_shape.append(
            strides[i] * (x.shape[2 + i] - 1) + out_pads[i] + kernel[i]
            - pads[i] - pads[spatial + i]
        )
    _out(node, ctx, out_shape, x.dtype)


@_register("MaxPool", "AveragePool", "LpPool")
def _infer_pool(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    spatial = x.rank - 2
    kernel = list(node.ints_attr("kernel_shape"))
    if len(kernel) != spatial:
        raise ShapeInferenceError(f"{node.op_type} kernel_shape rank mismatch")
    strides, dilations, pads, auto_pad = _spatial_attrs(node, spatial, kernel)
    ceil_mode = node.int_attr("ceil_mode", 0)
    out_shape = [x.shape[0], x.shape[1]]
    for i in range(spatial):
        if pads is None:
            pb, pe = _same_pads(x.shape[2 + i], kernel[i], strides[i],
                                dilations[i], auto_pad == "SAME_UPPER")
        else:
            pb, pe = pads[i], pads[spatial + i]
        out_shape.append(_pool_output_size(
            x.shape[2 + i], kernel[i], strides[i], dilations[i],
            pb, pe, ceil_mode))
    _out(node, ctx, out_shape, x.dtype)


@_register("GlobalAveragePool", "GlobalMaxPool")
def _infer_global_pool(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    _out(node, ctx, list(x.shape[:2]) + [1] * (x.rank - 2), x.dtype)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------
@_register("Gemm")
def _infer_gemm(node: Node, ctx: _Ctx) -> None:
    a = ctx.info(node.inputs[0])
    b = ctx.info(node.inputs[1])
    if a.rank != 2 or b.rank != 2:
        raise ShapeInferenceError(f"Gemm expects rank-2 operands, got {a.shape},{b.shape}")
    ta, tb = node.int_attr("transA", 0), node.int_attr("transB", 0)
    m, ka = (a.shape[1], a.shape[0]) if ta else (a.shape[0], a.shape[1])
    kb, n = (b.shape[1], b.shape[0]) if tb else (b.shape[0], b.shape[1])
    if ka != kb:
        raise ShapeInferenceError(f"Gemm K mismatch: {ka} vs {kb}")
    _out(node, ctx, (m, n), a.dtype)


@_register("MatMul")
def _infer_matmul(node: Node, ctx: _Ctx) -> None:
    a = ctx.info(node.inputs[0])
    b = ctx.info(node.inputs[1])
    sa, sb = list(a.shape), list(b.shape)
    if len(sa) == 0 or len(sb) == 0:
        raise ShapeInferenceError("MatMul operands must have rank >= 1")
    squeeze_a = squeeze_b = False
    if len(sa) == 1:
        sa, squeeze_a = [1] + sa, True
    if len(sb) == 1:
        sb, squeeze_b = sb + [1], True
    if sa[-1] != sb[-2]:
        raise ShapeInferenceError(f"MatMul K mismatch: {a.shape} @ {b.shape}")
    batch = broadcast_shapes(sa[:-2], sb[:-2])
    out = list(batch) + [sa[-2], sb[-1]]
    if squeeze_a:
        out.pop(-2)
    if squeeze_b:
        out.pop(-1)
    _out(node, ctx, out, a.dtype)


@_register("Einsum")
def _infer_einsum(node: Node, ctx: _Ctx) -> None:
    eq = node.str_attr("equation").replace(" ", "")
    lhs, _, rhs = eq.partition("->")
    terms = lhs.split(",")
    if len(terms) != len(node.present_inputs):
        raise ShapeInferenceError(f"Einsum {eq!r}: operand count mismatch")
    dims: Dict[str, int] = {}
    for term, inp in zip(terms, node.present_inputs):
        shape = ctx.info(inp).shape
        if len(term) != len(shape):
            raise ShapeInferenceError(f"Einsum {eq!r}: rank mismatch for {inp!r}")
        for ch, d in zip(term, shape):
            if dims.setdefault(ch, d) != d:
                raise ShapeInferenceError(f"Einsum {eq!r}: dim {ch} inconsistent")
    _out(node, ctx, [dims[c] for c in rhs], ctx.info(node.inputs[0]).dtype)


# ---------------------------------------------------------------------------
# normalization / activation (shape-preserving)
# ---------------------------------------------------------------------------
@_register(
    "Relu", "LeakyRelu", "Sigmoid", "Tanh", "Erf", "Exp", "Log", "Sqrt",
    "Neg", "Abs", "Floor", "Ceil", "Round", "Reciprocal", "Softplus",
    "HardSigmoid", "HardSwish", "Elu", "Selu", "Gelu", "Mish", "Sign",
    "Softmax", "LogSoftmax", "Identity", "Dropout", "Clip",
    "BatchNormalization", "LayerNormalization", "GroupNormalization",
    "InstanceNormalization", "LpNormalization", "LRN", "Celu",
)
def _infer_shape_preserving(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    _out(node, ctx, x.shape, x.dtype)
    # BatchNormalization may have extra (training) outputs; ignore beyond 0.


@_register("QuantizeLinear")
def _infer_quantize(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    _out(node, ctx, x.shape, DataType.INT8)


@_register("DequantizeLinear")
def _infer_dequantize(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    _out(node, ctx, x.shape, DataType.FLOAT32)


# ---------------------------------------------------------------------------
# elementwise binary / ternary
# ---------------------------------------------------------------------------
@_register("Add", "Sub", "Mul", "Div", "Pow", "Min", "Max", "Mod",
           "PRelu", "And", "Or", "Xor", "BitShift")
def _infer_binary(node: Node, ctx: _Ctx) -> None:
    a = ctx.info(node.inputs[0])
    b = ctx.info(node.inputs[1])
    shape = broadcast_shapes(a.shape, b.shape)
    dtype = a.dtype if a.dtype.is_float or not b.dtype.is_float else b.dtype
    va, vb = ctx.const(node.inputs[0]), ctx.const(node.inputs[1])
    value = None
    if va is not None and vb is not None and not a.dtype.is_float:
        fn = {"Add": np.add, "Sub": np.subtract, "Mul": np.multiply,
              "Div": lambda x, y: x // y if np.issubdtype(x.dtype, np.integer) else x / y,
              "Min": np.minimum, "Max": np.maximum, "Mod": np.mod}.get(node.op_type)
        if fn is not None:
            value = np.asarray(fn(va, vb))
    _out(node, ctx, shape, dtype, value)


@_register("Equal", "Greater", "Less", "GreaterOrEqual", "LessOrEqual", "Not")
def _infer_compare(node: Node, ctx: _Ctx) -> None:
    a = ctx.info(node.inputs[0])
    if len(node.present_inputs) > 1:
        shape = broadcast_shapes(a.shape, ctx.info(node.inputs[1]).shape)
    else:
        shape = a.shape
    _out(node, ctx, shape, DataType.BOOL)


@_register("Where")
def _infer_where(node: Node, ctx: _Ctx) -> None:
    c = ctx.info(node.inputs[0])
    a = ctx.info(node.inputs[1])
    b = ctx.info(node.inputs[2])
    shape = broadcast_shapes(broadcast_shapes(c.shape, a.shape), b.shape)
    _out(node, ctx, shape, a.dtype)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------
@_register("Shape")
def _infer_shape_op(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    start, end = _shape_slice_bounds(
        x.rank, node.int_attr("start", 0), node.int_attr("end", x.rank))
    dims = np.asarray(x.shape[start:end], dtype=np.int64)
    _out(node, ctx, (len(dims),), DataType.INT64, dims)


@_register("Reshape")
def _infer_reshape(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    if "shape" in node.attrs:
        target = list(node.ints_attr("shape"))
    else:
        target = [int(v) for v in ctx.require_const(node.inputs[1], "Reshape").tolist()]
    out: List[int] = []
    neg_one = None
    for i, d in enumerate(target):
        if d == 0 and not node.int_attr("allowzero", 0):
            out.append(x.shape[i])
        elif d == -1:
            if neg_one is not None:
                raise ShapeInferenceError("Reshape: multiple -1 dims")
            neg_one = i
            out.append(1)
        else:
            out.append(d)
    total = math.prod(out)
    if neg_one is not None:
        if total == 0 or x.numel % total:
            raise ShapeInferenceError(
                f"Reshape: cannot infer -1 ({x.shape} -> {target})")
        out[neg_one] = x.numel // total
    elif math.prod(out) != x.numel:
        raise ShapeInferenceError(f"Reshape: element count mismatch {x.shape} -> {out}")
    val = ctx.const(node.inputs[0])
    _out(node, ctx, out, x.dtype, None if val is None else val.reshape(out))


@_register("Flatten")
def _infer_flatten(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    axis = node.int_attr("axis", 1)
    if axis < 0:
        axis += x.rank
    if not 0 <= axis <= x.rank:
        raise ShapeInferenceError(
            f"Flatten: axis {node.int_attr('axis', 1)} out of range for rank {x.rank}")
    outer = math.prod(x.shape[:axis]) if axis else 1
    inner = math.prod(x.shape[axis:]) if axis < x.rank else 1
    _out(node, ctx, (outer, inner), x.dtype)


@_register("Transpose")
def _infer_transpose(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    perm = list(node.ints_attr("perm")) or list(range(x.rank))[::-1]
    if sorted(perm) != list(range(x.rank)):
        raise ShapeInferenceError(f"Transpose: bad perm {perm} for rank {x.rank}")
    val = ctx.const(node.inputs[0])
    _out(node, ctx, [x.shape[p] for p in perm], x.dtype,
         None if val is None else np.transpose(val, perm))


@_register("Concat")
def _infer_concat(node: Node, ctx: _Ctx) -> None:
    infos = [ctx.info(i) for i in node.present_inputs]
    axis = node.int_attr("axis")
    rank = infos[0].rank
    axis = axis % rank if axis < 0 else axis
    out = list(infos[0].shape)
    for t in infos[1:]:
        if t.rank != rank:
            raise ShapeInferenceError("Concat: rank mismatch")
        for d in range(rank):
            if d != axis and t.shape[d] != out[d]:
                raise ShapeInferenceError(
                    f"Concat: dim {d} mismatch {t.shape} vs {tuple(out)}")
        out[axis] += t.shape[axis]
    vals = [ctx.const(i) for i in node.present_inputs]
    value = None
    if all(v is not None for v in vals):
        value = np.concatenate(vals, axis=axis)  # type: ignore[arg-type]
    _out(node, ctx, out, infos[0].dtype, value)


@_register("Split")
def _infer_split(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    axis = node.int_attr("axis", 0)
    axis = axis % x.rank if axis < 0 else axis
    if "split" in node.attrs:
        sizes = list(node.ints_attr("split"))
    elif len(node.inputs) > 1 and node.inputs[1]:
        sizes = [int(v) for v in ctx.require_const(node.inputs[1], "Split").tolist()]
    else:
        n = len(node.outputs)
        if x.shape[axis] % n:
            raise ShapeInferenceError("Split: dim not divisible")
        sizes = [x.shape[axis] // n] * n
    if sum(sizes) != x.shape[axis]:
        raise ShapeInferenceError(f"Split: sizes {sizes} != dim {x.shape[axis]}")
    for idx, size in enumerate(sizes):
        shape = list(x.shape)
        shape[axis] = size
        _out(node, ctx, shape, x.dtype, idx=idx)


@_register("Slice")
def _infer_slice(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    if "starts" in node.attrs:
        starts = list(node.ints_attr("starts"))
        ends = list(node.ints_attr("ends"))
        axes = list(node.ints_attr("axes")) or list(range(len(starts)))
        steps = list(node.ints_attr("steps")) or [1] * len(starts)
    else:
        starts = [int(v) for v in ctx.require_const(node.inputs[1], "Slice").tolist()]
        ends = [int(v) for v in ctx.require_const(node.inputs[2], "Slice").tolist()]
        if len(node.inputs) > 3 and node.inputs[3]:
            axes = [int(v) for v in ctx.require_const(node.inputs[3], "Slice").tolist()]
        else:
            axes = list(range(len(starts)))
        if len(node.inputs) > 4 and node.inputs[4]:
            steps = [int(v) for v in ctx.require_const(node.inputs[4], "Slice").tolist()]
        else:
            steps = [1] * len(starts)
    out = list(x.shape)
    slicers: List[slice] = [slice(None)] * x.rank
    for st, en, ax, sp in zip(starts, ends, axes, steps):
        ax = ax % x.rank
        dim = x.shape[ax]
        if sp == 0:
            raise ShapeInferenceError("Slice: step must be non-zero")
        if sp > 0:
            # start/end clamp to [0, dim]
            st_c = max(st + dim, 0) if st < 0 else min(st, dim)
            en_c = max(en + dim, 0) if en < 0 else min(en, dim)
        else:
            # negative step: start clamps to [-1, dim-1], end to [-1, dim-1]
            # (-1 is the "before the beginning" sentinel, so e.g.
            # starts=[dim], ends=[-dim-1], steps=[-1] reverses the axis)
            st_c = max(st + dim, -1) if st < 0 else min(st, dim - 1)
            en_c = max(en + dim, -1) if en < 0 else min(en, dim - 1)
        out[ax] = max(0, math.ceil((en_c - st_c) / sp))
        slicers[ax] = slice(st, en, sp)
    val = ctx.const(node.inputs[0])
    _out(node, ctx, out, x.dtype, None if val is None else val[tuple(slicers)])


@_register("Squeeze")
def _infer_squeeze(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    if "axes" in node.attrs:
        axes = list(node.ints_attr("axes"))
    elif len(node.inputs) > 1 and node.inputs[1]:
        axes = [int(v) for v in ctx.require_const(node.inputs[1], "Squeeze").tolist()]
    else:
        axes = [i for i, d in enumerate(x.shape) if d == 1]
    axes = [a % x.rank for a in axes]
    out = [d for i, d in enumerate(x.shape) if i not in axes]
    val = ctx.const(node.inputs[0])
    _out(node, ctx, out, x.dtype, None if val is None else val.reshape(out))


@_register("Unsqueeze")
def _infer_unsqueeze(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    if "axes" in node.attrs:
        axes = list(node.ints_attr("axes"))
    else:
        axes = [int(v) for v in ctx.require_const(node.inputs[1], "Unsqueeze").tolist()]
    out_rank = x.rank + len(axes)
    axes = sorted(a % out_rank for a in axes)
    out: List[int] = list(x.shape)
    for a in axes:
        out.insert(a, 1)
    val = ctx.const(node.inputs[0])
    _out(node, ctx, out, x.dtype, None if val is None else val.reshape(out))


@_register("Expand")
def _infer_expand(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    target = [int(v) for v in ctx.require_const(node.inputs[1], "Expand").tolist()]
    _out(node, ctx, broadcast_shapes(x.shape, target), x.dtype)


@_register("Tile")
def _infer_tile(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    reps = [int(v) for v in ctx.require_const(node.inputs[1], "Tile").tolist()]
    _out(node, ctx, [d * r for d, r in zip(x.shape, reps)], x.dtype)


@_register("Pad")
def _infer_pad(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    if "pads" in node.attrs:
        pads = list(node.ints_attr("pads"))
    else:
        pads = [int(v) for v in ctx.require_const(node.inputs[1], "Pad").tolist()]
    if len(pads) != 2 * x.rank:
        raise ShapeInferenceError(f"Pad: expected {2*x.rank} pads, got {len(pads)}")
    out = [d + pads[i] + pads[x.rank + i] for i, d in enumerate(x.shape)]
    _out(node, ctx, out, x.dtype)


@_register("Gather")
def _infer_gather(node: Node, ctx: _Ctx) -> None:
    data = ctx.info(node.inputs[0])
    indices = ctx.info(node.inputs[1])
    axis = node.int_attr("axis", 0) % data.rank
    out = list(data.shape[:axis]) + list(indices.shape) + list(data.shape[axis + 1:])
    dval, ival = ctx.const(node.inputs[0]), ctx.const(node.inputs[1])
    value = None
    if dval is not None and ival is not None:
        value = np.take(dval, ival.astype(np.int64), axis=axis)
    _out(node, ctx, out, data.dtype, value)


@_register("GatherElements")
def _infer_gather_elements(node: Node, ctx: _Ctx) -> None:
    indices = ctx.info(node.inputs[1])
    _out(node, ctx, indices.shape, ctx.info(node.inputs[0]).dtype)


@_register("ScatterND")
def _infer_scatter_nd(node: Node, ctx: _Ctx) -> None:
    data = ctx.info(node.inputs[0])
    _out(node, ctx, data.shape, data.dtype)


@_register("Resize")
def _infer_resize(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    # inputs: X, roi?, scales?, sizes?
    sizes_name = node.inputs[3] if len(node.inputs) > 3 else ""
    scales_name = node.inputs[2] if len(node.inputs) > 2 else ""
    if "sizes" in node.attrs:
        out = list(node.ints_attr("sizes"))
    elif sizes_name:
        out = [int(v) for v in ctx.require_const(sizes_name, "Resize").tolist()]
    elif "scales" in node.attrs or scales_name:
        scales = (
            [float(v) for v in node.attr("scales")]
            if "scales" in node.attrs
            else [float(v) for v in ctx.require_const(scales_name, "Resize").tolist()]
        )
        out = [int(math.floor(d * s)) for d, s in zip(x.shape, scales)]
    else:
        raise ShapeInferenceError("Resize: needs scales or sizes")
    _out(node, ctx, out, x.dtype)


@_register("DepthToSpace")
def _infer_depth_to_space(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    bs = node.int_attr("blocksize")
    n, c, h, w = x.shape
    _out(node, ctx, (n, c // (bs * bs), h * bs, w * bs), x.dtype)


@_register("SpaceToDepth")
def _infer_space_to_depth(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    bs = node.int_attr("blocksize")
    n, c, h, w = x.shape
    _out(node, ctx, (n, c * bs * bs, h // bs, w // bs), x.dtype)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------
@_register("ReduceMean", "ReduceSum", "ReduceMax", "ReduceMin", "ReduceProd",
           "ReduceL2", "ReduceL1", "ReduceSumSquare", "ReduceLogSumExp")
def _infer_reduce(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    keepdims = node.int_attr("keepdims", 1)
    if "axes" in node.attrs:
        axes = list(node.ints_attr("axes"))
    elif len(node.inputs) > 1 and node.inputs[1]:
        axes = [int(v) for v in ctx.require_const(node.inputs[1], node.op_type).tolist()]
    else:
        axes = list(range(x.rank))
    axes = [a % x.rank for a in axes]
    out: List[int] = []
    for i, d in enumerate(x.shape):
        if i in axes:
            if keepdims:
                out.append(1)
        else:
            out.append(d)
    _out(node, ctx, out, x.dtype)


@_register("ArgMax", "ArgMin")
def _infer_arg_reduce(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    axis = node.int_attr("axis", 0) % x.rank
    keepdims = node.int_attr("keepdims", 1)
    out = [1 if i == axis else d for i, d in enumerate(x.shape)] if keepdims else \
          [d for i, d in enumerate(x.shape) if i != axis]
    _out(node, ctx, out, DataType.INT64)


@_register("TopK")
def _infer_topk(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    k = int(ctx.require_const(node.inputs[1], "TopK").reshape(-1)[0])
    axis = node.int_attr("axis", -1) % x.rank
    out = [k if i == axis else d for i, d in enumerate(x.shape)]
    _out(node, ctx, out, x.dtype, idx=0)
    if len(node.outputs) > 1:
        _out(node, ctx, out, DataType.INT64, idx=1)


# ---------------------------------------------------------------------------
# constants / misc
# ---------------------------------------------------------------------------
@_register("Constant")
def _infer_constant(node: Node, ctx: _Ctx) -> None:
    value = node.attr("value")
    if value is None:
        raise ShapeInferenceError(f"Constant {node.name!r} missing 'value'")
    value = np.asarray(value)
    _out(node, ctx, value.shape, DataType.from_numpy(value.dtype), value)


@_register("ConstantOfShape")
def _infer_constant_of_shape(node: Node, ctx: _Ctx) -> None:
    shape = [int(v) for v in ctx.require_const(node.inputs[0], "ConstantOfShape").tolist()]
    value = node.attr("value")
    fill = np.asarray(value if value is not None else np.float32(0))
    dt = DataType.from_numpy(fill.dtype)
    const = np.full(shape, fill.reshape(-1)[0]) if math.prod(shape) <= _MAX_PROP_ELEMS else None
    _out(node, ctx, shape, dt, const)


@_register("Cast")
def _infer_cast(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    to = node.attr("to")
    dtype = DataType.parse(to) if isinstance(to, str) else DataType(to)
    val = ctx.const(node.inputs[0])
    _out(node, ctx, x.shape, dtype,
         None if val is None else val.astype(dtype.to_numpy()))


@_register("Range")
def _infer_range(node: Node, ctx: _Ctx) -> None:
    start = ctx.require_const(node.inputs[0], "Range").reshape(-1)[0]
    limit = ctx.require_const(node.inputs[1], "Range").reshape(-1)[0]
    delta = ctx.require_const(node.inputs[2], "Range").reshape(-1)[0]
    value = np.arange(start, limit, delta)
    _out(node, ctx, value.shape, DataType.from_numpy(value.dtype), value)


@_register("OneHot")
def _infer_onehot(node: Node, ctx: _Ctx) -> None:
    indices = ctx.info(node.inputs[0])
    depth = int(ctx.require_const(node.inputs[1], "OneHot").reshape(-1)[0])
    axis = node.int_attr("axis", -1)
    out = list(indices.shape)
    pos = axis % (len(out) + 1)
    out.insert(pos, depth)
    _out(node, ctx, out, ctx.info(node.inputs[2]).dtype)


@_register("CumSum")
def _infer_cumsum(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    _out(node, ctx, x.shape, x.dtype)


@_register("Trilu")
def _infer_trilu(node: Node, ctx: _Ctx) -> None:
    x = ctx.info(node.inputs[0])
    _out(node, ctx, x.shape, x.dtype)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def infer_shapes(graph: Graph, strict: bool = True) -> Graph:
    """Run shape inference in place; returns the same graph.

    With ``strict=False``, unknown op types copy their first input's
    info to every output instead of raising (useful for synthetic test
    graphs with custom ops).
    """
    ctx = _Ctx(graph)
    for node in graph.toposort():
        fn = _REGISTRY.get(node.op_type)
        if fn is None:
            if strict:
                raise ShapeInferenceError(
                    f"no shape inference for op type {node.op_type!r} "
                    f"(node {node.name!r})"
                )
            x = ctx.info(node.inputs[0])
            for idx in range(len(node.outputs)):
                _out(node, ctx, x.shape, x.dtype, idx=idx)
            continue
        try:
            fn(node, ctx)
        except ShapeInferenceError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise ShapeInferenceError(
                f"shape inference failed at node {node.name or node.op_type!r}: {exc}"
            ) from exc
    graph.value_info = dict(ctx.infos)
    # Refresh declared graph outputs with inferred shapes so builders may
    # declare them loosely.
    new_outputs = []
    for t in graph.outputs:
        new_outputs.append(ctx.infos.get(t.name, t))
    graph.outputs = new_outputs
    return graph


def registered_ops() -> List[str]:
    """All op types with shape-inference support (sorted)."""
    return sorted(_REGISTRY)
