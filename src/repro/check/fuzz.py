"""Seeded random-graph fuzzer + differential runner.

The repo executes a graph two ways: the reference
:class:`~repro.ir.executor.Executor` and compiled
:class:`~repro.ir.plan.ExecutionPlan` objects at optimization levels
O0-O3, both running the model's own ONNX nodes.  O0 and O1 fold shape
constants only and are bit-exact; O2 relaxes numerics (BatchNorm
folding), so it only has to agree within tolerance, and O3 inherits
exactly that budget — its extra machinery (O2's steps plus a
calibrated subnormal flush) is execution strategy, not arithmetic.

:func:`fuzz_graph` composes small Conv/Gemm/pool/elementwise/reshape
subgraphs with deliberately adversarial attributes — asymmetric pads,
all ``auto_pad`` modes, ``group`` > 1, dilations, ``ceil_mode``,
missing ``strides``, broadcasting, negative axes/steps, multi-consumer
tensors and intermediate graph outputs.  Every candidate node is
validated by shape inference and rolled back if rejected, so generation
always yields a well-formed graph.  Generation is fully deterministic
in ``(seed, index)``.

:func:`differential_check` runs one graph through all five execution
paths and additionally cross-checks runtime output shapes/dtypes
against static shape inference, so inference bugs cannot hide behind an
executor that happens to agree with itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..ir.executor import Executor
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.plan import compile_plan
from ..ir.serialization import to_json
from ..ir.shape_inference import ShapeInferenceError, infer_shapes
from ..ir.tensor import DataType, Initializer, TensorInfo

__all__ = ["FuzzFailure", "FuzzSummary", "fuzz_graph", "make_feeds",
           "differential_check", "run_fuzz"]

#: default tolerance for O2 plans (BatchNorm folding re-associates)
O2_RTOL = 1e-5
O2_ATOL = 1e-6


@dataclass
class FuzzFailure:
    """One fuzzed graph that broke an agreement check."""

    index: int
    seed: int
    problems: List[str]
    #: serialized graph (repro.ir.serialization document) for replay
    graph_doc: Optional[dict] = None

    def describe(self) -> str:
        head = f"graph #{self.index} (seed {self.seed})"
        return head + "".join(f"\n  - {p}" for p in self.problems)


@dataclass
class FuzzSummary:
    """Outcome of a fuzzing campaign."""

    count: int
    seed: int
    failures: List[FuzzFailure] = field(default_factory=list)
    op_histogram: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# graph generation
# ---------------------------------------------------------------------------
class _Gen:
    """Stateful builder: proposes nodes, keeps only what inference accepts."""

    def __init__(self, rng: np.random.Generator, name: str) -> None:
        self.rng = rng
        n = int(rng.choice([1, 1, 2]))
        c = int(rng.integers(1, 9))
        h = int(rng.integers(6, 16))
        w = int(rng.integers(6, 16))
        info = TensorInfo("input", (n, c, h, w), DataType.FLOAT32)
        self.g = Graph(name=name, inputs=[info], outputs=[])
        self.g.value_info["input"] = info
        self.counter = 0
        #: names of float tensors usable as operands
        self.pool: List[str] = ["input"]

    # -- plumbing ------------------------------------------------------
    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}_{self.counter}"

    def info(self, name: str) -> TensorInfo:
        return self.g.value_info[name]

    def pick(self, rank: Optional[int] = None, min_hw: int = 1) -> Optional[str]:
        cands = []
        for name in self.pool:
            t = self.info(name)
            if rank is not None and t.rank != rank:
                continue
            if rank == 4 and (t.shape[2] < min_hw or t.shape[3] < min_hw):
                continue
            cands.append(name)
        if not cands:
            return None
        return cands[int(self.rng.integers(len(cands)))]

    def try_add(self, nodes: List[Node],
                inits: Optional[List[Initializer]] = None) -> bool:
        """Append nodes+initializers; roll back unless inference accepts."""
        inits = inits or []
        for init in inits:
            self.g.add_initializer(init)
        for node in nodes:
            self.g.add_node(node)
        try:
            infer_shapes(self.g, strict=True)
        except Exception:
            self.g.remove_nodes(nodes)
            for init in inits:
                del self.g.initializers[init.name]
            self.g.invalidate()
            return False
        for node in nodes:
            for out in node.outputs:
                if self.info(out).dtype.is_float:
                    self.pool.append(out)
        return True

    def virtual(self, name: str, shape) -> Initializer:
        return Initializer(
            TensorInfo(name, tuple(shape), DataType.FLOAT32), None)

    # -- op builders ---------------------------------------------------
    def add_conv(self) -> bool:
        src = self.pick(rank=4)
        if src is None:
            return False
        rng = self.rng
        n, c, h, w = self.info(src).shape
        divisors = [d for d in range(1, c + 1) if c % d == 0]
        group = int(rng.choice(divisors))
        cg_in = c // group
        c_out = group * int(rng.integers(1, 5))
        k = int(rng.integers(1, min(4, min(h, w) + 1)))
        attrs: Dict[str, object] = {"kernel_shape": [k, k],
                                    "group": group}
        mode = rng.integers(6)
        if mode == 0:
            attrs["pads"] = [int(v) for v in rng.integers(0, k + 1, size=4)]
        elif mode == 1:
            p = int(rng.integers(0, k + 1))
            attrs["pads"] = [p, p, p, p]
        elif mode == 2:
            attrs["auto_pad"] = "SAME_UPPER"
        elif mode == 3:
            attrs["auto_pad"] = "SAME_LOWER"
        elif mode == 4:
            # VALID must override a contradicting pads attribute
            attrs["auto_pad"] = "VALID"
            attrs["pads"] = [1, 1, 1, 1]
        if rng.integers(2):
            attrs["strides"] = [int(rng.integers(1, 3)),
                                int(rng.integers(1, 3))]
        if "auto_pad" not in attrs and rng.integers(3) == 0:
            attrs["dilations"] = [int(rng.integers(1, 3)),
                                  int(rng.integers(1, 3))]
        wname = self.fresh("w")
        inits = [self.virtual(wname, (c_out, cg_in, k, k))]
        inputs = [src, wname]
        if rng.integers(2):
            bname = self.fresh("b")
            inits.append(self.virtual(bname, (c_out,)))
            inputs.append(bname)
        out = self.fresh("conv")
        return self.try_add(
            [Node("Conv", inputs, [out], name=out, attrs=attrs)], inits)

    def add_pool(self) -> bool:
        src = self.pick(rank=4, min_hw=2)
        if src is None:
            return False
        rng = self.rng
        op = "MaxPool" if rng.integers(2) else "AveragePool"
        k = int(rng.integers(1, 4))
        attrs: Dict[str, object] = {"kernel_shape": [k, k]}
        mode = rng.integers(5)
        if mode == 0:
            attrs["pads"] = [int(v) for v in rng.integers(0, k + 1, size=4)]
        elif mode == 1:
            attrs["auto_pad"] = "SAME_UPPER"
        elif mode == 2:
            attrs["auto_pad"] = "SAME_LOWER"
        elif mode == 3:
            attrs["auto_pad"] = "VALID"
        if rng.integers(3):   # sometimes omit strides: ONNX default is 1s
            attrs["strides"] = [int(rng.integers(1, 4)),
                                int(rng.integers(1, 4))]
        if "auto_pad" not in attrs:
            attrs["ceil_mode"] = int(rng.integers(2))
            if rng.integers(3) == 0:
                attrs["dilations"] = [int(rng.integers(1, 3)),
                                      int(rng.integers(1, 3))]
        if op == "AveragePool":
            attrs["count_include_pad"] = int(rng.integers(2))
        out = self.fresh("pool")
        return self.try_add([Node(op, [src], [out], name=out, attrs=attrs)])

    def add_global_pool(self) -> bool:
        src = self.pick(rank=4)
        if src is None:
            return False
        out = self.fresh("gap")
        return self.try_add(
            [Node("GlobalAveragePool", [src], [out], name=out)])

    def add_unary(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        op = str(self.rng.choice(
            ["Relu", "Sigmoid", "Tanh", "Neg", "Abs", "Identity"]))
        out = self.fresh(op.lower())
        return self.try_add([Node(op, [src], [out], name=out)])

    def add_binary(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        rng = self.rng
        op = str(rng.choice(["Add", "Mul", "Sub", "Max", "Min"]))
        mode = rng.integers(4)
        inits: List[Initializer] = []
        if mode == 0:       # tensor (op) itself: a multi-consumer tensor
            other = src
        elif mode == 1:     # scalar constant operand
            cname = self.fresh("c")
            val = np.float32(rng.normal())
            inits.append(Initializer(
                TensorInfo(cname, (), DataType.FLOAT32), np.asarray(val)))
            other = cname
        elif mode == 2 and self.info(src).rank == 4:
            # per-channel broadcast constant
            cname = self.fresh("cc")
            c = self.info(src).shape[1]
            inits.append(Initializer(
                TensorInfo(cname, (1, c, 1, 1), DataType.FLOAT32),
                rng.normal(size=(1, c, 1, 1)).astype(np.float32)))
            other = cname
        else:               # another live tensor of the same shape
            shape = self.info(src).shape
            cands = [t for t in self.pool
                     if t != src and self.info(t).shape == shape]
            if not cands:
                return False
            other = cands[int(rng.integers(len(cands)))]
        left = [src, other] if rng.integers(2) else [other, src]
        out = self.fresh(op.lower())
        return self.try_add([Node(op, left, [out], name=out)], inits)

    def add_silu(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        sig = self.fresh("sig")
        out = self.fresh("silu")
        return self.try_add([
            Node("Sigmoid", [src], [sig], name=sig),
            Node("Mul", [src, sig], [out], name=out),
        ])

    def add_batchnorm(self) -> bool:
        src = self.pick(rank=4)
        if src is None:
            return False
        c = self.info(src).shape[1]
        names = [self.fresh(s) for s in ("bn_s", "bn_b", "bn_m", "bn_v")]
        inits = [self.virtual(n, (c,)) for n in names]
        out = self.fresh("bn")
        attrs = {"epsilon": float(self.rng.choice([1e-5, 1e-3]))}
        return self.try_add(
            [Node("BatchNormalization", [src] + names, [out], name=out,
                  attrs=attrs)], inits)

    def add_gemm(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        rng = self.rng
        t = self.info(src)
        axis = int(rng.integers(-t.rank, t.rank + 1))
        flat = self.fresh("flat")
        nodes = [Node("Flatten", [src], [flat], name=flat,
                      attrs={"axis": axis})]
        ax = axis + t.rank if axis < 0 else axis
        k = math.prod(t.shape[ax:]) if ax < t.rank else 1
        n_out = int(rng.integers(1, 9))
        trans_b = int(rng.integers(2))
        wname = self.fresh("gw")
        wshape = (n_out, k) if trans_b else (k, n_out)
        inits = [self.virtual(wname, wshape)]
        inputs = [flat, wname]
        if rng.integers(2):
            bname = self.fresh("gb")
            inits.append(self.virtual(bname, (n_out,)))
            inputs.append(bname)
        out = self.fresh("gemm")
        nodes.append(Node("Gemm", inputs, [out], name=out,
                          attrs={"transB": trans_b}))
        return self.try_add(nodes, inits)

    def add_shape_probe(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        rng = self.rng
        rank = self.info(src).rank
        attrs: Dict[str, object] = {}
        if rng.integers(2):
            attrs["start"] = int(rng.integers(-rank - 1, rank + 2))
        if rng.integers(2):
            attrs["end"] = int(rng.integers(-rank - 1, rank + 2))
        out = self.fresh("shape")
        return self.try_add([Node("Shape", [src], [out], name=out,
                                  attrs=attrs)])

    def add_slice(self) -> bool:
        src = self.pick(rank=4, min_hw=3)
        if src is None:
            return False
        rng = self.rng
        t = self.info(src)
        ax = int(rng.choice([2, 3]))
        dim = t.shape[ax]
        if rng.integers(2):  # reverse with out-of-range bounds
            starts, ends, steps = [dim + 2], [-dim - 3], [-1]
        else:
            starts = [int(rng.integers(-dim, dim))]
            ends = [int(rng.integers(-dim, dim + 3))]
            steps = [int(rng.choice([1, 1, 2, -1, -2]))]
        out = self.fresh("slice")
        return self.try_add([Node(
            "Slice", [src], [out], name=out,
            attrs={"starts": starts, "ends": ends, "axes": [ax],
                   "steps": steps})])

    def add_reshape(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        t = self.info(src)
        rng = self.rng
        if t.rank >= 2 and rng.integers(2):
            target = [0, -1] if rng.integers(2) else [t.shape[0], -1]
        else:
            target = [1, -1]
        out = self.fresh("reshape")
        return self.try_add([Node("Reshape", [src], [out], name=out,
                                  attrs={"shape": target})])

    def add_transpose(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        t = self.info(src)
        perm = list(self.rng.permutation(t.rank).astype(int))
        out = self.fresh("transpose")
        return self.try_add([Node("Transpose", [src], [out], name=out,
                                  attrs={"perm": [int(p) for p in perm]})])

    def add_concat_self(self) -> bool:
        src = self.pick(rank=4)
        if src is None:
            return False
        out = self.fresh("concat")
        return self.try_add([Node("Concat", [src, src], [out], name=out,
                                  attrs={"axis": 1})])

    def add_flatten(self) -> bool:
        src = self.pick()
        if src is None:
            return False
        t = self.info(src)
        axis = int(self.rng.integers(-t.rank, t.rank + 1))
        out = self.fresh("flatten")
        return self.try_add([Node("Flatten", [src], [out], name=out,
                                  attrs={"axis": axis})])

    def add_cast_arith(self) -> bool:
        """int round-trip: Cast -> integer Add -> Cast back (promotion)."""
        src = self.pick()
        if src is None:
            return False
        casted = self.fresh("int")
        bumped = self.fresh("bump")
        back = self.fresh("float")
        cname = self.fresh("ci")
        inits = [Initializer(TensorInfo(cname, (), DataType.INT32),
                             np.asarray(np.int32(3)))]
        return self.try_add([
            Node("Cast", [src], [casted], name=casted,
                 attrs={"to": "int32"}),
            Node("Add", [casted, cname], [bumped], name=bumped),
            Node("Cast", [bumped], [back], name=back,
                 attrs={"to": "float32"}),
        ], inits)

    # -- driver --------------------------------------------------------
    _MENU = [
        (add_conv, 4), (add_pool, 4), (add_unary, 3), (add_binary, 3),
        (add_silu, 1), (add_batchnorm, 2), (add_gemm, 1),
        (add_shape_probe, 1), (add_slice, 2), (add_reshape, 1),
        (add_transpose, 1), (add_concat_self, 1), (add_flatten, 1),
        (add_global_pool, 1), (add_cast_arith, 1),
    ]

    def build(self) -> Graph:
        rng = self.rng
        builders = [b for b, w in self._MENU for _ in range(w)]
        num_ops = int(rng.integers(3, 9))
        added = 0
        for _ in range(num_ops * 4):
            if added >= num_ops:
                break
            fn = builders[int(rng.integers(len(builders)))]
            if fn(self):
                added += 1
        if self.g.num_nodes == 0:
            # degenerate fallback so every index yields a runnable graph
            assert self.add_unary()
        # outputs: every leaf tensor, plus occasionally a non-leaf
        # intermediate (no runtime may drop or merge it)
        consumed = {i for n in self.g.nodes for i in n.inputs if i}
        produced = [o for n in self.g.nodes for o in n.outputs]
        leaves = [o for o in produced if o not in consumed]
        chosen = leaves or [produced[-1]]
        interior = [o for o in produced if o in consumed]
        if interior and rng.integers(2):
            extra = interior[int(rng.integers(len(interior)))]
            if extra not in chosen:
                chosen.append(extra)
        self.g.outputs = [self.g.value_info[name] for name in chosen]
        infer_shapes(self.g, strict=True)
        return self.g


def fuzz_graph(seed: int, index: int) -> Graph:
    """Deterministically generate fuzz graph ``index`` of campaign ``seed``."""
    rng = np.random.default_rng([seed, index])
    return _Gen(rng, name=f"fuzz_{seed}_{index}").build()


# ---------------------------------------------------------------------------
# differential execution
# ---------------------------------------------------------------------------
def make_feeds(graph: Graph, seed: int = 0) -> Dict[str, np.ndarray]:
    """Deterministic feeds for every declared graph input."""
    rng = np.random.default_rng([seed, 0xFEED])
    feeds: Dict[str, np.ndarray] = {}
    for t in graph.inputs:
        if t.dtype.is_float:
            feeds[t.name] = rng.standard_normal(t.shape).astype(
                t.dtype.to_numpy())
        else:
            feeds[t.name] = rng.integers(0, 4, size=t.shape).astype(
                t.dtype.to_numpy())
    return feeds


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(
        a, b, equal_nan=np.issubdtype(a.dtype, np.inexact)))


def _tolerance_equal(want: np.ndarray, have: np.ndarray, rtol: float,
                     atol: float) -> bool:
    """Scale-aware tolerance for numerics-relaxed (O2) rewrites.

    Element-wise relative error is meaningless where a re-associated
    sum cancels to near zero, so the absolute floor scales with the
    reference tensor's own magnitude: ``atol + rtol * max|want|``.
    """
    if want.shape != have.shape or want.dtype != have.dtype:
        return False
    if not np.issubdtype(want.dtype, np.inexact):
        return bool(np.array_equal(want, have))
    finite = np.abs(want[np.isfinite(want)])
    scale = float(finite.max()) if finite.size else 0.0
    return bool(np.allclose(want, have, rtol=rtol,
                            atol=atol + rtol * scale, equal_nan=True))


def differential_check(graph: Graph, seed: int = 0, rtol: float = O2_RTOL,
                       atol: float = O2_ATOL) -> List[str]:
    """All execution paths of one graph must agree.  Returns problems.

    - runtime output shape/dtype must match static shape inference;
    - O0 and O1 plans must be bit-identical to the legacy executor;
    - O2 and O3 plans must agree within ``rtol``/``atol``.  O3 shares
      O2's tolerance budget: its rewrites and steps are O2's, and the
      subnormal flush perturbs values by less than the largest float32
      subnormal.
    """
    problems: List[str] = []
    g = graph.copy()
    infer_shapes(g, strict=True)
    feeds = make_feeds(g, seed=seed)
    ref = Executor(g, seed=seed).run(feeds)
    for name, arr in ref.items():
        info = g.tensor(name)
        if tuple(arr.shape) != tuple(info.shape):
            problems.append(
                f"{name}: executed shape {tuple(arr.shape)} != "
                f"inferred {tuple(info.shape)}")
        elif DataType.from_numpy(arr.dtype) != info.dtype:
            problems.append(
                f"{name}: executed dtype {arr.dtype} != "
                f"inferred {info.dtype.value}")
    for level in (0, 1, 2, 3):
        try:
            got = compile_plan(g, seed=seed, optimize=level).run(feeds)
        except Exception as exc:  # a plan that cannot run is a failure
            problems.append(f"O{level}: plan failed: "
                            f"{type(exc).__name__}: {exc}")
            continue
        for name, want in ref.items():
            have = got.get(name)
            if have is None:
                problems.append(f"O{level}: output {name!r} missing")
            elif level < 2 and not _bit_equal(want, have):
                problems.append(
                    f"O{level}: {name!r} not bit-identical to executor")
            elif level >= 2 and not _tolerance_equal(want, have, rtol, atol):
                problems.append(
                    f"O{level}: {name!r} outside rtol={rtol} of executor")
    return problems


def run_fuzz(count: int, seed: int = 0, rtol: float = O2_RTOL,
             keep_graphs: bool = True) -> FuzzSummary:
    """Run a fuzzing campaign of ``count`` graphs from ``seed``."""
    summary = FuzzSummary(count=count, seed=seed)
    for index in range(count):
        try:
            graph = fuzz_graph(seed, index)
        except Exception as exc:  # generator itself must never crash
            summary.failures.append(FuzzFailure(
                index, seed, [f"generation failed: "
                              f"{type(exc).__name__}: {exc}"]))
            continue
        for node in graph.nodes:
            summary.op_histogram[node.op_type] = \
                summary.op_histogram.get(node.op_type, 0) + 1
        try:
            problems = differential_check(graph, seed=seed, rtol=rtol)
        except (ShapeInferenceError, Exception) as exc:
            problems = [f"differential run crashed: "
                        f"{type(exc).__name__}: {exc}"]
        if problems:
            doc = to_json(graph) if keep_graphs else None
            summary.failures.append(
                FuzzFailure(index, seed, problems, graph_doc=doc))
    return summary
