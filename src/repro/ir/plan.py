"""Compiled execution plans for the reference executor.

:func:`repro.ir.executor.execute` resolves everything on every call:
it re-materializes weights, re-runs kernel dispatch, re-parses node
attributes, re-resolves padding, and allocates fresh im2col / padding
scratch for every convolution.  That is the right trade-off for a
one-shot reference check, but profiling workloads execute the same
graph many times (accuracy experiments, sweeps, the fig. 7 block
comparison), where all of that work is invariant across runs.

:class:`ExecutionPlan` moves the invariant work to compile time:

* **constant subgraphs fold ahead of time** — the plan compiles against
  a copy rewritten by :func:`repro.ir.passes.fold_shape_constants`, so
  statically-known ``Shape`` chains and other constant subgraphs never
  execute at run time;
* **topological order, kernel dispatch and attribute parsing resolve
  once** — each node becomes a step closure with its kernel bound;
* **liveness-based buffer release** — every intermediate is dropped
  right after its last consumer, bounding peak memory to the live set
  instead of the whole tensor table;
* **scratch arenas** — convolution im2col/padding buffers and pooling
  window stacks are allocated once per plan and reused across runs
  (padding borders are written once; only the interior changes).

Plans optionally compile against a graph rewritten by the leveled
optimization pipeline (:func:`repro.ir.passes.optimize_graph`):

* ``optimize=0`` (default) keeps the historical behavior — plan-time
  shape-constant folding only, bit-identical to ``execute()``;
* ``optimize=1`` adds the bit-exact rewrites (conv/GEMM activation
  fusion, elementwise chain fusion, CSE, DCE) and the bit-exact fast
  kernels — fused epilogues run inside the conv step, 1x1 convolutions
  skip im2col entirely and go straight to GEMM — still bit-identical;
* ``optimize=2`` adds BatchNorm weight folding and the
  numerics-relaxed depthwise MAC-loop kernel; outputs then match the
  legacy executor within float rounding (``rtol=1e-5``), not
  bit-for-bit.
* ``optimize=3`` keeps O2's graph rewrites and adds plan-compile
  machinery on top: a **dataflow schedule** (:mod:`repro.ir.schedule`)
  that partitions steps into dependency levels of independent chains
  and fixes the level-major run order; a **static arena**
  (:mod:`repro.ir.memplan`) that assigns every static intermediate a
  fixed offset so steady-state runs allocate nothing per run; **weight
  pre-packing** (reshaped / transposed / accumulation-typed conv and
  GEMM operands built once at compile time); and an adaptive
  flush-to-zero guard that zeroes denormal activations the way
  accelerator runtimes do by default — x86 BLAS kernels slow down by
  more than an order of magnitude on subnormal inputs, so random-weight
  deep stacks would otherwise profile the denormal unit, not the model.
  O3 shares O2's tolerance contract (subnormal flushes perturb values
  by < 1.2e-38, far below the O2 ``atol``).

At level 2+ the plan eagerly materializes the original graph's weights
with the seeded generator *before* folding, so the folded parameters
derive from exactly the weight stream the legacy executor draws.

A level-0/1 plan's results are bit-identical to the legacy
``execute()`` path: weights materialize from the *original* graph's
initializers in the same order with the same seeded generator, and the
specialized conv / pool steps perform exactly the legacy arithmetic on
reused buffers.  Scratch buffers and the O3 arena are *per-thread*
state (``threading.local``), so one plan may be shared and run
concurrently from any number of threads at every optimization level;
each thread pays its own scratch warm-up and results stay bit-identical
run-to-run.  The only serialized section is the first O3 run (the
flush-to-zero calibration pass).
"""
from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..obs.metrics import default_registry
from ..obs.trace import get_tracer
from .executor import (ExecutionError, _BINARY, _EXEC, _avgpool_divisor,
                       _fused_stages, _im2col, _pool_geometry,
                       _resolve_pads_for_shape)
from .fusion import decode_op
from .graph import Graph
from .memplan import ArenaPlan, TensorRequest, plan_arena
from .node import Node
from .passes import fold_shape_constants, optimize_graph
from .schedule import Schedule, build_schedule
from .shape_inference import infer_shapes

__all__ = ["ExecutionPlan", "compile_plan"]

#: a step takes the tensor environment and returns its output arrays
_StepFn = Callable[[Dict[str, np.ndarray]], List[np.ndarray]]

#: smallest normal float32; anything below (but nonzero) is subnormal
_TINY = np.float32(1.1754944e-38)

#: ops whose output is a pure view of their first input under static
#: shapes — at O3 they alias their source's storage instead of taking
#: an arena slot of their own
_ALIAS_OPS = frozenset(
    {"Reshape", "Flatten", "Identity", "Dropout", "Squeeze", "Unsqueeze"})

#: fused-op ufuncs usable with an explicit ``out=`` operand
_OUT_BINARY = {"Add": np.add, "Sub": np.subtract, "Mul": np.multiply,
               "Div": np.divide, "Min": np.minimum, "Max": np.maximum,
               "Pow": np.power}


def _o3_epilogue(tokens: Sequence[str]):
    """Compile fused-op tokens into arena-aware stages.

    Returns ``(stages, needs_tmp)`` where each stage is
    ``stage(src, dst, tmp)`` computing its result *into* ``dst`` without
    disturbing ``src`` (``src is dst`` is allowed — every stage reads
    ``src`` before the first write that could clobber it).  The stages
    perform the exact IEEE operation sequences of
    :func:`repro.ir.executor._make_stage` restricted to the all-float32
    case, so applying them in the arena is bit-identical to the O1/O2
    epilogue path.  Returns ``None`` when any token has no out-of-place
    form; callers then fall back to the generic kernel.
    """
    stages = []
    needs_tmp = False
    for tok in tokens:
        op, params = decode_op(tok)
        if op == "Relu":
            def relu(src, dst, tmp):
                np.maximum(src, 0, out=dst)
            stages.append(relu)
        elif op == "Sigmoid":
            def sigmoid(src, dst, tmp):
                np.clip(src, -60.0, 60.0, out=dst)
                np.negative(dst, out=dst)
                np.exp(dst, out=dst)
                np.add(dst, 1.0, out=dst)
                np.divide(1.0, dst, out=dst)
            stages.append(sigmoid)
        elif op == "SiLU":
            needs_tmp = True

            def silu(src, dst, tmp):
                np.clip(src, -60.0, 60.0, out=tmp)
                np.negative(tmp, out=tmp)
                np.exp(tmp, out=tmp)
                np.add(tmp, 1.0, out=tmp)
                np.divide(1.0, tmp, out=tmp)
                np.multiply(src, tmp, out=dst)
            stages.append(silu)
        elif op == "HardSwish":
            needs_tmp = True

            def hardswish(src, dst, tmp):
                np.divide(src, 6.0, out=tmp)
                np.add(tmp, 0.5, out=tmp)
                np.clip(tmp, 0.0, 1.0, out=tmp)
                np.multiply(src, tmp, out=dst)
            stages.append(hardswish)
        elif op == "HardSigmoid":
            def hardsigmoid(src, dst, tmp):
                np.divide(src, 6.0, out=dst)
                np.add(dst, 0.5, out=dst)
                np.clip(dst, 0.0, 1.0, out=dst)
            stages.append(hardsigmoid)
        elif op == "Clip":
            lo, hi = params.get("lo"), params.get("hi")
            lo32 = None if lo is None else np.float32(lo)
            hi32 = None if hi is None else np.float32(hi)
            if lo32 is not None and hi32 is not None:
                def clip(src, dst, tmp, lo32=lo32, hi32=hi32):
                    np.maximum(src, lo32, out=dst)
                    np.minimum(dst, hi32, out=dst)
            elif lo32 is not None:
                def clip(src, dst, tmp, lo32=lo32):
                    np.maximum(src, lo32, out=dst)
            elif hi32 is not None:
                def clip(src, dst, tmp, hi32=hi32):
                    np.minimum(src, hi32, out=dst)
            else:
                def clip(src, dst, tmp):
                    if dst is not src:
                        np.copyto(dst, src)
            stages.append(clip)
        elif op in _OUT_BINARY and "c" in params:
            fn = _OUT_BINARY[op]
            c32 = np.asarray(params["c"], np.float32)
            if params.get("side", "l") == "l":
                def binop(src, dst, tmp, fn=fn, c32=c32):
                    fn(src, c32, out=dst)
            else:
                def binop(src, dst, tmp, fn=fn, c32=c32):
                    fn(c32, src, out=dst)
            stages.append(binop)
        else:
            return None
    return stages, needs_tmp


def _o3_apply(stages, src: np.ndarray, dst: np.ndarray,
              tmp: Optional[np.ndarray]) -> None:
    cur = src
    for stage in stages:
        stage(cur, dst, tmp)
        cur = dst


class _Step:
    """One compiled node: bound kernel + wiring + buffers to release."""

    __slots__ = ("node", "run", "outputs", "release")

    def __init__(self, node: Node, run: _StepFn) -> None:
        self.node = node
        self.run = run
        self.outputs = list(node.outputs)
        self.release: List[str] = []


class _O3Step:
    """One O3-scheduled step: writes its outputs into arena views.

    ``run(env, views)`` receives the per-run tensor environment and the
    calling thread's arena view table; it both computes the outputs and
    publishes them into ``env``.  ``mode`` records how the step was
    compiled (``direct`` = out-of-place kernel writing straight into
    the arena, ``alias`` = zero-copy view of the input, ``fallback`` =
    generic kernel + copy into the arena).  ``ftz`` is set by the
    calibration run for steps whose outputs carry enough subnormals to
    poison downstream BLAS kernels; ``fouts`` lists the float32 outputs
    a flush would apply to.
    """

    __slots__ = ("node", "run", "outputs", "mode", "ftz", "fouts")

    def __init__(self, node: Node, run, outputs: List[str], mode: str,
                 fouts: List[str]) -> None:
        self.node = node
        self.run = run
        self.outputs = outputs
        self.mode = mode
        self.ftz = False
        self.fouts = fouts


class ExecutionPlan:
    """A graph compiled for repeated execution (see module docstring)."""

    def __init__(self, graph: Graph, seed: int = 0, fold: bool = True,
                 optimize: int = 0) -> None:
        self.graph = graph
        self.seed = seed
        self.optimize_level = int(optimize)
        work = graph.copy()
        if not work.value_info:
            infer_shapes(work)
        self._weights: Optional[Dict[str, np.ndarray]] = None
        if self.optimize_level >= 2:
            # weight-materializing passes (BN folding) run next: draw the
            # seeded weight stream first — original initializer order,
            # original generator — and pin it on the work copy, so folded
            # parameters derive from exactly the values the legacy
            # executor would have drawn for this seed
            rng = np.random.default_rng(seed)
            self._weights = {name: init.materialize(rng)
                             for name, init in graph.initializers.items()}
            for name, arr in self._weights.items():
                init = work.initializers.get(name)
                if init is not None and init.data is None:
                    init.data = arr
        if self.optimize_level > 0:
            work = optimize_graph(work, level=self.optimize_level,
                                  in_place=True)
        elif fold:
            work = fold_shape_constants(work, in_place=True)
        self.plan_graph = work
        #: constants produced by plan-time folding (always materialized)
        self._folded_consts: Dict[str, np.ndarray] = {
            name: init.data for name, init in work.initializers.items()
            if name not in graph.initializers and init.data is not None}
        self._stable_names: Set[str] = \
            set(graph.initializers) | set(self._folded_consts)
        #: scratch buffers and the O3 arena are per-thread: one plan may
        #: run concurrently from many threads with no shared mutable
        #: run state
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._run_count = 0
        self._protected = set(work.output_names)
        #: O3 state (None / empty below level 3)
        self._o3_steps: Optional[List[_O3Step]] = None
        self._schedule: Optional[Schedule] = None
        self._arena: Optional[ArenaPlan] = None
        self._steps = self._compile_steps()
        self._plan_liveness()
        if self.optimize_level >= 3:
            self._compile_o3()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile_steps(self) -> List[_Step]:
        steps: List[_Step] = []
        for node in self.plan_graph.toposort():
            fn = _EXEC.get(node.op_type)
            if fn is None:
                raise ExecutionError(
                    f"no executor for op type {node.op_type!r}")
            run: Optional[_StepFn] = None
            if node.op_type == "Conv":
                run = self._compile_conv(node)
            elif node.op_type in ("MaxPool", "AveragePool"):
                run = self._compile_pool(node)
            elif node.op_type == "Gemm":
                run = self._compile_gemm(node)
            elif node.op_type == "FusedElementwise":
                run = self._compile_fused_elementwise(node)
            if run is None:
                run = self._compile_generic(node, fn)
            steps.append(_Step(node, run))
        return steps

    def _plan_liveness(self) -> None:
        """Attach to each step the intermediates whose last use it is."""
        produced: Set[str] = set()
        for step in self._steps:
            produced.update(step.outputs)
        last_use: Dict[str, int] = {}
        for idx, step in enumerate(self._steps):
            for t in step.node.present_inputs:
                if t in produced:
                    last_use[t] = idx
        for idx, step in enumerate(self._steps):
            for t in step.outputs:
                if t in self._protected:
                    continue
                owner = last_use.get(t, idx)  # unconsumed: release at birth
                self._steps[owner].release.append(t)

    @staticmethod
    def _compile_generic(node: Node, fn) -> _StepFn:
        input_names = list(node.inputs)

        def run(env: Dict[str, np.ndarray]) -> List[np.ndarray]:
            return fn(node, [env[t] if t else None for t in input_names])
        return run

    def _static_shape(self, name: str) -> Optional[Tuple[int, ...]]:
        try:
            shape = self.plan_graph.tensor(name).shape
        except KeyError:
            return None
        if not all(isinstance(d, int) for d in shape):
            return None
        return tuple(shape)

    def _static_dtype(self, name: str) -> Optional[np.dtype]:
        try:
            info = self.plan_graph.tensor(name)
        except KeyError:
            return None
        if info is None:
            return None
        try:
            return np.dtype(info.dtype.to_numpy())
        except (KeyError, TypeError):
            return None

    def _const_value(self, name: str) -> Optional[np.ndarray]:
        """Plan-time value of a stable tensor (weight or folded const)."""
        val = self._folded_consts.get(name)
        if val is None and self._weights is not None:
            val = self._weights.get(name)
        return val

    def _scratch_map(self) -> Dict[object, np.ndarray]:
        m = getattr(self._tls, "scratch", None)
        if m is None:
            m = self._tls.scratch = {}
        return m

    def _buffer(self, key: object, shape: Tuple[int, ...], dtype,
                fill: Optional[float] = None) -> np.ndarray:
        scratch = self._scratch_map()
        buf = scratch.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            if fill is None:
                buf = np.empty(shape, dtype=dtype)
            else:
                buf = np.full(shape, fill, dtype=dtype)
            scratch[key] = buf
        return buf

    # -- fused elementwise chains ---------------------------------------
    def _compile_fused_elementwise(self, node: Node) -> Optional[_StepFn]:
        """Token chain compiled once; one buffer pass per stage, no
        per-node dispatch, env traffic or release bookkeeping between
        the fused stages."""
        stages = _fused_stages(list(node.attrs.get("fused_ops") or ()))
        x_name = node.inputs[0]

        def run(env: Dict[str, np.ndarray]) -> List[np.ndarray]:
            y = env[x_name]
            dt = y.dtype
            for fn in stages:
                y = fn(y, dt)
            return [y]
        return run

    # -- convolution ----------------------------------------------------
    def _compile_conv(self, node: Node) -> Optional[_StepFn]:
        xs = self._static_shape(node.inputs[0])
        ws = self._static_shape(node.inputs[1])
        if xs is None or ws is None or len(xs) != 4:
            return None
        kernel = list(node.ints_attr("kernel_shape")) or list(ws[2:])
        strides = list(node.ints_attr("strides")) or [1, 1]
        dilations = list(node.ints_attr("dilations")) or [1, 1]
        group = node.int_attr("group", 1)
        pads = _resolve_pads_for_shape(node, xs, kernel, strides, dilations)
        kh, kw = kernel
        sh, sw = strides
        dh, dw = dilations
        ph0, pw0, ph1, pw1 = pads
        n, c_in, h, w_dim = xs
        c_out = ws[0]
        cg_in, cg_out = c_in // group, c_out // group
        padded = bool(ph0 or ph1 or pw0 or pw1)
        out_h = (h + ph0 + ph1 - (dh * (kh - 1) + 1)) // sh + 1
        out_w = (w_dim + pw0 + pw1 - (dw * (kw - 1) + 1)) // sw + 1
        x_name, w_name = node.inputs[0], node.inputs[1]
        b_name = node.inputs[2] if len(node.inputs) > 2 and node.inputs[2] \
            else None
        # the reshaped/accumulation-typed weight view is cacheable only
        # when the weight tensors are run-invariant (plan weights or
        # folded constants), not step outputs
        cacheable = w_name in self._stable_names and \
            (b_name is None or b_name in self._stable_names)
        state: Dict[str, object] = {}
        # fused activation/scalar epilogue (optimize >= 1): stages run
        # the exact arithmetic the absorbed nodes' kernels would have
        stages = _fused_stages(list(node.attrs.get("fused_ops") or ()))
        # 1x1 stride-respecting convolution is a pure GEMM over a
        # reshape of the input — same values in, same matmul, so the
        # im2col copy can be skipped without changing a bit
        fast_1x1 = self.optimize_level >= 1 and kh == 1 and kw == 1 \
            and dh == 1 and dw == 1 and not padded
        # depthwise MAC loop sums the kh*kw products in a different
        # order than BLAS does inside the im2col GEMM, so it is gated
        # to the numerics-relaxed level
        fast_depthwise = self.optimize_level >= 2 and group > 1 \
            and group == c_in and cg_in == 1 and cg_out == 1 \
            and not fast_1x1

        def finish(y: np.ndarray, x: np.ndarray) -> np.ndarray:
            out = y if y.dtype == x.dtype else y.astype(x.dtype)
            if stages:
                dt = out.dtype
                for fn in stages:
                    out = fn(out, dt)
            return out

        def weights_for(env, acc):
            if not cacheable or state.get("acc") != acc:
                wt = env[w_name]
                b = env[b_name] if b_name else None
                if fast_depthwise:
                    # (c_out, kh*kw): one weight scalar per channel/tap
                    state["w"] = wt.reshape(c_out, kh * kw).astype(acc)
                else:
                    # (group, cg_out, cg_in*kh*kw): same values as the
                    # legacy wt[g*cg_out:(g+1)*cg_out].reshape(cg_out, -1)
                    state["w"] = wt.reshape(group, cg_out, -1).astype(acc)
                state["bias"] = None if b is None \
                    else b.reshape(1, -1, 1, 1).astype(acc)
                state["acc"] = acc
            return state["w"], state["bias"]

        # with few output pixels the per-tap numpy dispatch dominates:
        # gather windows in one strided copy and run one batched
        # per-channel GEMV instead of kh*kw multiply/accumulate passes
        small_dw = fast_depthwise and dh == 1 and dw == 1 \
            and out_h * out_w <= 32

        if fast_depthwise:
            def run(env: Dict[str, np.ndarray]) -> List[np.ndarray]:
                x = env[x_name]
                acc = x.dtype if x.dtype == np.float64 else np.float32
                w2, bias = weights_for(env, acc)
                if padded:
                    xp = self._buffer(
                        ("conv.xp", id(node)),
                        (n, c_in, h + ph0 + ph1, w_dim + pw0 + pw1),
                        x.dtype, fill=0)
                    xp[:, :, ph0:ph0 + h, pw0:pw0 + w_dim] = x
                else:
                    xp = x
                if small_dw:
                    win = self._buffer(
                        ("conv.dwwin", id(node)),
                        (n, c_out, out_h, out_w, kh, kw), acc)
                    view = sliding_window_view(
                        xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
                    np.copyto(win, view)
                    m = win.reshape(n, c_out, out_h * out_w, kh * kw)
                    y = np.matmul(m, w2[:, :, None]) \
                        .reshape(n, c_out, out_h, out_w)
                else:
                    # fresh output (it escapes the step); scratch only
                    # for the per-tap product
                    y = np.zeros((n, c_out, out_h, out_w), dtype=acc)
                    tmp = self._buffer(("conv.dwtmp", id(node)),
                                       (n, c_out, out_h, out_w), acc)
                    for i in range(kh):
                        hi = i * dh
                        for j in range(kw):
                            wj = j * dw
                            patch = xp[:, :, hi:hi + sh * out_h:sh,
                                       wj:wj + sw * out_w:sw]
                            np.multiply(
                                patch,
                                w2[:, i * kw + j].reshape(1, -1, 1, 1),
                                out=tmp)
                            y += tmp
                if bias is not None:
                    np.add(y, bias, out=y)
                return [finish(y, x)]
            return run

        def run(env: Dict[str, np.ndarray]) -> List[np.ndarray]:
            x = env[x_name]
            acc = x.dtype if x.dtype == np.float64 else np.float32
            w_all, bias = weights_for(env, acc)
            if fast_1x1:
                if sh == 1 and sw == 1:
                    col2d = x.reshape(n, c_in, out_h * out_w)
                else:
                    col2d = np.ascontiguousarray(
                        x[:, :, ::sh, ::sw]).reshape(n, c_in, out_h * out_w)
                oh, ow = out_h, out_w
            else:
                # one im2col over all channels: the (n, C, kh, kw, oH,
                # oW) arena regroups to per-group column blocks by pure
                # reshape, so every group sees exactly the values the
                # legacy per-group _im2col produced — without `group`
                # pad/gather passes
                xp = self._buffer(
                    ("conv.xp", id(node)),
                    (n, c_in, h + ph0 + ph1, w_dim + pw0 + pw1),
                    x.dtype, fill=0) if padded else None
                cols = self._buffer(("conv.cols", id(node)),
                                    (n, c_in, kh, kw, out_h, out_w), x.dtype)
                col2d, oh, ow = _im2col(
                    x, kh, kw, sh, sw, ph0, pw0, ph1, pw1, dh, dw,
                    xp=xp, cols=cols)
            if group == 1:
                mat = col2d if col2d.dtype == acc else col2d.astype(acc)
                y = np.matmul(w_all, mat).reshape(n, c_out, oh, ow)
            else:
                # (group, n, cg_in*kh*kw, M) view; batched matmul runs
                # the same per-group GEMMs the legacy loop did
                colg = col2d.reshape(n, group, -1, oh * ow) \
                    .transpose(1, 0, 2, 3)
                mat = colg if colg.dtype == acc else colg.astype(acc)
                y = np.matmul(w_all[:, None], mat)
                y = y.transpose(1, 0, 2, 3).reshape(n, c_out, oh, ow)
            if bias is not None:
                # y is freshly produced by matmul (or a copying reshape
                # of it): accumulating in place yields identical values
                # without another full-tensor allocation
                np.add(y, bias, out=y)
            return [finish(y, x)]
        return run

    # -- Gemm -----------------------------------------------------------
    def _compile_gemm(self, node: Node) -> Optional[_StepFn]:
        """Cache the transposed / accumulation-typed operands.

        The generic Gemm kernel rebuilds ``B.T.astype(acc)`` (a full
        transposed copy of the weight matrix) and ``beta * C`` on every
        call.  Both are run-invariant when the operands are plan
        weights, so build them once — the cached arrays are exactly the
        arrays the legacy kernel constructs, fed to the same matmul, so
        results stay bit-identical.
        """
        if self.optimize_level < 1:
            return None
        if len(node.inputs) < 2 or not node.inputs[1]:
            return None
        a_name, b_name = node.inputs[0], node.inputs[1]
        c_name = node.inputs[2] if len(node.inputs) > 2 and node.inputs[2] \
            else None
        if b_name not in self._stable_names or \
                (c_name is not None and c_name not in self._stable_names):
            return None
        trans_a = node.int_attr("transA", 0)
        trans_b = node.int_attr("transB", 0)
        alpha = node.float_attr("alpha", 1.0)
        beta = node.float_attr("beta", 1.0)
        stages = _fused_stages(list(node.attrs.get("fused_ops") or ()))
        state: Dict[str, object] = {}

        def run(env: Dict[str, np.ndarray]) -> List[np.ndarray]:
            a = env[a_name]
            if trans_a:
                a = a.T
            acc = np.float64 if env[a_name].dtype == np.float64 \
                else np.float32
            if state.get("acc") != acc:
                b = env[b_name]
                if trans_b:
                    b = b.T
                state["b"] = b.astype(acc)
                state["c"] = None if c_name is None \
                    else beta * env[c_name].astype(acc)
                state["acc"] = acc
            if a.dtype != acc or not a.flags.c_contiguous:
                a = a.astype(acc)
            y = alpha * np.matmul(a, state["b"])
            if state["c"] is not None:
                np.add(y, state["c"], out=y)
            out_dt = env[a_name].dtype
            y = y if y.dtype == out_dt else y.astype(out_dt)
            if stages:
                dt = y.dtype
                for fn in stages:
                    y = fn(y, dt)
            return [y]
        return run

    # -- pooling --------------------------------------------------------
    def _compile_pool(self, node: Node) -> Optional[_StepFn]:
        xs = self._static_shape(node.inputs[0])
        if xs is None or len(xs) != 4:
            return None
        kernel = list(node.ints_attr("kernel_shape"))
        if len(kernel) != 2:
            return None
        # geometry (incl. ceil_mode overhang) and the AveragePool divisor
        # grid depend only on static shapes: precompute both with the
        # executor's own helpers so values match bit-for-bit
        (kernel, strides, dilations, pads, outs, extras) = \
            _pool_geometry(node, xs)
        kh, kw = kernel
        sh, sw = strides
        dh, dw = dilations
        ph0, pw0, ph1, pw1 = pads
        out_h, out_w = outs
        eh, ew = extras
        n, c, h, w_dim = xs
        is_max = node.op_type == "MaxPool"
        fill = -np.inf if is_max else 0.0
        counts: Optional[np.ndarray] = None
        if not is_max:
            counts = _avgpool_divisor(node, xs)
        x_name = node.inputs[0]

        def run(env: Dict[str, np.ndarray]) -> List[np.ndarray]:
            x = env[x_name]
            xp = self._buffer(("pool.xp", id(node)),
                              (n, c, h + ph0 + ph1 + eh, w_dim + pw0 + pw1 + ew),
                              np.float32, fill=fill)
            xp[:, :, ph0:ph0 + h, pw0:pw0 + w_dim] = x
            stacks = self._buffer(("pool.stacks", id(node)),
                                  (kh * kw, n, c, out_h, out_w), np.float32)
            for i in range(kh):
                for j in range(kw):
                    hi, wj = i * dh, j * dw
                    stacks[i * kw + j] = xp[:, :, hi:hi + sh * out_h:sh,
                                            wj:wj + sw * out_w:sw]
            if is_max:
                y = stacks.max(axis=0)
            elif counts is None:
                y = stacks.mean(axis=0)
            else:
                y = stacks.sum(axis=0) / counts
            return [y.astype(x.dtype)]
        return run

    # ------------------------------------------------------------------
    # O3: dataflow schedule + arena memory plan + pre-packed kernels
    # ------------------------------------------------------------------
    def _compile_o3(self) -> None:
        """Build the O3 tier on top of the compiled step list.

        1. step dependency sets -> dataflow :class:`Schedule` (chains
           grouped into barrier-separated levels);
        2. alias classification (view ops borrow their source's
           storage) + level-granular liveness -> static arena offsets
           (:func:`repro.ir.memplan.plan_arena`);
        3. per-step recompilation: out-of-place kernels that write
           straight into arena views where the op supports it, generic
           kernel + copy-in otherwise, zero-copy views for aliases.
        """
        steps = self._steps
        producer: Dict[str, int] = {}
        for idx, st in enumerate(steps):
            for o in st.outputs:
                producer[o] = idx
        deps: List[Set[int]] = []
        for st in steps:
            d: Set[int] = set()
            for t in st.node.present_inputs:
                p = producer.get(t)
                if p is not None:
                    d.add(p)
            deps.append(d)
        self._schedule = build_schedule(deps)
        level_of = [0] * len(steps)
        for li, level in enumerate(self._schedule.levels):
            for chain in level:
                for si in chain:
                    level_of[si] = li
        last_level = max(len(self._schedule.levels) - 1, 0)

        # -- alias classification ---------------------------------------
        alias_src: Dict[str, str] = {}
        alias_steps: Dict[int, Tuple[str, str, Tuple[int, ...]]] = {}
        for idx, st in enumerate(steps):
            nd = st.node
            if nd.op_type not in _ALIAS_OPS or len(st.outputs) != 1:
                continue
            if not nd.inputs or not nd.inputs[0]:
                continue
            out = st.outputs[0]
            oshape = self._static_shape(out)
            ishape = self._static_shape(nd.inputs[0])
            if oshape is None or ishape is None:
                continue
            onumel = inumel = 1
            for dim in oshape:
                onumel *= dim
            for dim in ishape:
                inumel *= dim
            if onumel != inumel:
                continue
            alias_src[out] = nd.inputs[0]
            alias_steps[idx] = (out, nd.inputs[0], oshape)

        def root(name: str) -> str:
            hops = 0
            while name in alias_src and hops < len(alias_src) + 1:
                name = alias_src[name]
                hops += 1
            return name

        # -- liveness intervals (level granularity) + arena -------------
        slots: Dict[str, Tuple[Tuple[int, ...], np.dtype]] = {}
        birth: Dict[str, int] = {}
        death: Dict[str, int] = {}
        for idx, st in enumerate(steps):
            if idx in alias_steps:
                continue
            for o in st.outputs:
                if o in self._protected:
                    continue
                shape = self._static_shape(o)
                dt = self._static_dtype(o)
                if shape is None or dt is None:
                    continue
                slots[o] = (shape, dt)
                birth[o] = death[o] = level_of[idx]
        for idx, st in enumerate(steps):
            lvl = level_of[idx]
            for t in st.node.present_inputs:
                r = root(t)
                if r in death and lvl > death[r]:
                    death[r] = lvl
        # an alias of an arena tensor escaping as a graph output pins
        # its root through the final level (the view is copied at
        # gather time)
        for out in self._protected:
            if out in alias_src:
                r = root(out)
                if r in death:
                    death[r] = last_level
        requests = []
        for name, (shape, dt) in slots.items():
            numel = 1
            for dim in shape:
                numel *= dim
            requests.append(TensorRequest(name, numel * dt.itemsize,
                                          birth[name], death[name]))
        self._arena = plan_arena(requests)
        self._o3_slots = slots
        #: arena / alias contents are clobbered by slot reuse before the
        #: run ends — fetching them needs the serial reference path
        self._o3_unsafe_fetch = \
            (set(slots) | set(alias_src)) - self._protected
        self._o3_gather_copy = {o for o in self._protected
                                if o in alias_src}
        self._o3_feeds = [(t.name, tuple(t.shape),
                           np.dtype(t.dtype.to_numpy()))
                          for t in self.graph.inputs]
        self._base_env: Dict[str, np.ndarray] = {}
        if self._weights:
            self._base_env.update(self._weights)
        self._base_env.update(self._folded_consts)

        # -- step recompilation -----------------------------------------
        o3: List[_O3Step] = []
        stats = {"direct": 0, "alias": 0, "fallback": 0}
        for idx, st in enumerate(steps):
            nd = st.node
            if idx in alias_steps:
                out, src, oshape = alias_steps[idx]

                def run(env, views, out=out, src=src, oshape=oshape):
                    env[out] = env[src].reshape(oshape)
                mode, fouts = "alias", []
            else:
                op = nd.op_type
                run = None
                if op == "Conv":
                    run = self._o3_conv(nd)
                elif op == "Gemm":
                    run = self._o3_gemm(nd)
                elif op in ("MaxPool", "AveragePool"):
                    run = self._o3_pool(nd)
                elif op == "GlobalAveragePool":
                    run = self._o3_gap(nd)
                elif op == "Concat":
                    run = self._o3_concat(nd)
                elif op == "Transpose":
                    run = self._o3_transpose(nd)
                elif op == "Split":
                    run = self._o3_split(nd)
                elif op == "FusedElementwise":
                    run = self._o3_fused(nd)
                elif op == "Relu":
                    run = self._o3_relu(nd)
                elif op in _OUT_BINARY:
                    run = self._o3_binary(nd)
                mode = "direct" if run is not None else "fallback"
                if run is None:
                    run = self._o3_fallback(st.run, st.outputs)
                fouts = [o for o in st.outputs
                         if self._static_dtype(o) == np.float32]
            stats[mode] += 1
            o3.append(_O3Step(nd, run, st.outputs, mode, fouts))
        self._o3_steps = o3
        #: serial execution must follow the *level-major* order — arena
        #: slot reuse is only safe across level boundaries, and plain
        #: topological order may run a slot's new tenant before a
        #: sibling branch's last reader
        self._o3_order = [o3[i] for i in self._schedule.order]
        self._o3_calibrated = False
        stats.update(peak_arena_bytes=self._arena.peak_bytes,
                     arena_tensors=len(slots),
                     levels=self._schedule.num_levels,
                     chains=self._schedule.num_chains,
                     max_width=self._schedule.max_width)
        self._o3_stats = stats
        default_registry().gauge(
            "plan.o3.arena_peak_bytes",
            help_text="static arena size of the most recently compiled "
                      "O3 execution plan (bytes)",
        ).set(float(self._arena.peak_bytes))

    def _o3_view_shape(self, name: str) -> Optional[Tuple[int, ...]]:
        slot = self._o3_slots.get(name)
        return slot[0] if slot is not None else None

    # -- O3 kernel writers (compute straight into arena views) ----------
    def _o3_conv(self, node: Node):
        out_name = node.outputs[0]
        xs = self._static_shape(node.inputs[0])
        ws = self._static_shape(node.inputs[1])
        if xs is None or ws is None or len(xs) != 4:
            return None
        if self._static_dtype(node.inputs[0]) != np.float32 or \
                self._static_dtype(out_name) != np.float32:
            return None
        kernel = list(node.ints_attr("kernel_shape")) or list(ws[2:])
        strides = list(node.ints_attr("strides")) or [1, 1]
        dilations = list(node.ints_attr("dilations")) or [1, 1]
        group = node.int_attr("group", 1)
        pads = _resolve_pads_for_shape(node, xs, kernel, strides, dilations)
        kh, kw = kernel
        sh, sw = strides
        dh, dw = dilations
        ph0, pw0, ph1, pw1 = pads
        n, c_in, h, w_dim = xs
        c_out = ws[0]
        cg_in, cg_out = c_in // group, c_out // group
        padded = bool(ph0 or ph1 or pw0 or pw1)
        out_h = (h + ph0 + ph1 - (dh * (kh - 1) + 1)) // sh + 1
        out_w = (w_dim + pw0 + pw1 - (dw * (kw - 1) + 1)) // sw + 1
        hw = out_h * out_w
        if self._o3_view_shape(out_name) != (n, c_out, out_h, out_w):
            return None
        x_name, w_name = node.inputs[0], node.inputs[1]
        b_name = node.inputs[2] if len(node.inputs) > 2 and node.inputs[2] \
            else None
        wt = self._const_value(w_name)
        b = self._const_value(b_name) if b_name else None
        if wt is None or (b_name and b is None):
            return None
        epi = _o3_epilogue(list(node.attrs.get("fused_ops") or ()))
        if epi is None:
            return None
        stages, needs_tmp = epi
        fast_1x1 = kh == 1 and kw == 1 and dh == 1 and dw == 1 \
            and not padded
        fast_depthwise = group > 1 and group == c_in and cg_in == 1 \
            and cg_out == 1 and not fast_1x1
        small_dw = fast_depthwise and dh == 1 and dw == 1 and hw <= 32
        # weight pre-packing: the reshaped / accumulation-typed operands
        # the O2 kernels build lazily on first run are persisted on the
        # plan at compile time
        bias4 = None if b is None else \
            np.ascontiguousarray(b.reshape(1, -1, 1, 1).astype(np.float32))
        if fast_depthwise:
            w2 = np.ascontiguousarray(
                wt.reshape(c_out, kh * kw).astype(np.float32))
            taps = [np.ascontiguousarray(w2[:, k].reshape(1, c_out, 1, 1))
                    for k in range(kh * kw)]
        else:
            w_all = np.ascontiguousarray(
                wt.reshape(group, cg_out, -1).astype(np.float32))

        def finish(view, env):
            if bias4 is not None:
                np.add(view, bias4, out=view)
            if stages:
                tmp = self._buffer(("o3.et", id(node)), view.shape,
                                   np.float32) if needs_tmp else None
                _o3_apply(stages, view, view, tmp)
            env[out_name] = view

        if fast_depthwise:
            def run(env, views):
                x = env[x_name]
                view = views[out_name]
                if padded:
                    xp = self._buffer(
                        ("conv.xp", id(node)),
                        (n, c_in, h + ph0 + ph1, w_dim + pw0 + pw1),
                        np.float32, fill=0)
                    xp[:, :, ph0:ph0 + h, pw0:pw0 + w_dim] = x
                else:
                    xp = x
                if small_dw:
                    win = self._buffer(
                        ("conv.dwwin", id(node)),
                        (n, c_out, out_h, out_w, kh, kw), np.float32)
                    np.copyto(win, sliding_window_view(
                        xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw])
                    m = win.reshape(n, c_out, hw, kh * kw)
                    np.matmul(m, w2[:, :, None],
                              out=view.reshape(n, c_out, hw, 1))
                else:
                    tmp = self._buffer(("conv.dwtmp", id(node)),
                                       (n, c_out, out_h, out_w), np.float32)
                    for i in range(kh):
                        hi = i * dh
                        for j in range(kw):
                            wj = j * dw
                            patch = xp[:, :, hi:hi + sh * out_h:sh,
                                       wj:wj + sw * out_w:sw]
                            if i == 0 and j == 0:
                                # first tap writes the accumulator
                                # directly — same sum, no zero-fill pass
                                np.multiply(patch, taps[0], out=view)
                            else:
                                np.multiply(patch, taps[i * kw + j],
                                            out=tmp)
                                view += tmp
                finish(view, env)
            return run

        def run(env, views):
            x = env[x_name]
            view = views[out_name]
            if fast_1x1:
                if sh == 1 and sw == 1:
                    col2d = x.reshape(n, c_in, hw)
                else:
                    sb = self._buffer(("o3.s1", id(node)),
                                      (n, c_in, out_h, out_w), np.float32)
                    np.copyto(sb, x[:, :, ::sh, ::sw])
                    col2d = sb.reshape(n, c_in, hw)
            else:
                xp = self._buffer(
                    ("conv.xp", id(node)),
                    (n, c_in, h + ph0 + ph1, w_dim + pw0 + pw1),
                    np.float32, fill=0) if padded else None
                cols = self._buffer(("conv.cols", id(node)),
                                    (n, c_in, kh, kw, out_h, out_w),
                                    np.float32)
                col2d, _, _ = _im2col(
                    x, kh, kw, sh, sw, ph0, pw0, ph1, pw1, dh, dw,
                    xp=xp, cols=cols)
            if group == 1:
                np.matmul(w_all, col2d, out=view.reshape(n, c_out, hw))
            else:
                yg = self._buffer(("o3.yg", id(node)),
                                  (group, n, cg_out, hw), np.float32)
                colg = col2d.reshape(n, group, -1, hw).transpose(1, 0, 2, 3)
                np.matmul(w_all[:, None], colg, out=yg)
                np.copyto(view.reshape(n, group, cg_out, hw),
                          yg.transpose(1, 0, 2, 3))
            finish(view, env)
        return run

    def _o3_gemm(self, node: Node):
        if len(node.inputs) < 2 or not node.inputs[1]:
            return None
        out_name = node.outputs[0]
        a_name, b_name = node.inputs[0], node.inputs[1]
        c_name = node.inputs[2] if len(node.inputs) > 2 and node.inputs[2] \
            else None
        if self._static_dtype(a_name) != np.float32 or \
                self._static_dtype(out_name) != np.float32:
            return None
        if self._o3_view_shape(out_name) is None:
            return None
        bv = self._const_value(b_name)
        cv = self._const_value(c_name) if c_name else None
        if bv is None or (c_name and cv is None):
            return None
        epi = _o3_epilogue(list(node.attrs.get("fused_ops") or ()))
        if epi is None:
            return None
        stages, needs_tmp = epi
        trans_a = node.int_attr("transA", 0)
        alpha = node.float_attr("alpha", 1.0)
        beta = node.float_attr("beta", 1.0)
        b2 = np.ascontiguousarray(
            (bv.T if node.int_attr("transB", 0) else bv).astype(np.float32))
        cp = None if cv is None else beta * cv.astype(np.float32)

        def run(env, views):
            a = env[a_name]
            if trans_a:
                a = a.T
            if a.dtype != np.float32 or not a.flags.c_contiguous:
                a = a.astype(np.float32)
            view = views[out_name]
            np.matmul(a, b2, out=view)
            if alpha != 1.0:
                np.multiply(view, alpha, out=view)
            if cp is not None:
                np.add(view, cp, out=view)
            if stages:
                tmp = self._buffer(("o3.et", id(node)), view.shape,
                                   np.float32) if needs_tmp else None
                _o3_apply(stages, view, view, tmp)
            env[out_name] = view
        return run

    def _o3_pool(self, node: Node):
        out_name = node.outputs[0]
        xs = self._static_shape(node.inputs[0])
        if xs is None or len(xs) != 4 or \
                len(list(node.ints_attr("kernel_shape"))) != 2:
            return None
        if self._static_dtype(node.inputs[0]) != np.float32 or \
                self._static_dtype(out_name) != np.float32:
            return None
        (kernel, strides, dilations, pads, outs, extras) = \
            _pool_geometry(node, xs)
        kh, kw = kernel
        sh, sw = strides
        dh, dw = dilations
        ph0, pw0, ph1, pw1 = pads
        out_h, out_w = outs
        eh, ew = extras
        n, c, h, w_dim = xs
        if self._o3_view_shape(out_name) != (n, c, out_h, out_w):
            return None
        is_max = node.op_type == "MaxPool"
        fill = -np.inf if is_max else 0.0
        counts = None if is_max else _avgpool_divisor(node, xs)
        x_name = node.inputs[0]

        def run(env, views):
            x = env[x_name]
            view = views[out_name]
            xp = self._buffer(
                ("pool.xp", id(node)),
                (n, c, h + ph0 + ph1 + eh, w_dim + pw0 + pw1 + ew),
                np.float32, fill=fill)
            xp[:, :, ph0:ph0 + h, pw0:pw0 + w_dim] = x
            stacks = self._buffer(("pool.stacks", id(node)),
                                  (kh * kw, n, c, out_h, out_w), np.float32)
            for i in range(kh):
                for j in range(kw):
                    hi, wj = i * dh, j * dw
                    stacks[i * kw + j] = xp[:, :, hi:hi + sh * out_h:sh,
                                            wj:wj + sw * out_w:sw]
            if is_max:
                np.max(stacks, axis=0, out=view)
            elif counts is None:
                np.mean(stacks, axis=0, out=view)
            else:
                np.sum(stacks, axis=0, out=view)
                np.divide(view, counts, out=view)
            env[out_name] = view
        return run

    def _o3_gap(self, node: Node):
        out_name = node.outputs[0]
        xs = self._static_shape(node.inputs[0])
        if xs is None or len(xs) < 3:
            return None
        if self._static_dtype(node.inputs[0]) != np.float32 or \
                self._static_dtype(out_name) != np.float32 or \
                self._o3_view_shape(out_name) is None:
            return None
        axes = tuple(range(2, len(xs)))
        x_name = node.inputs[0]

        def run(env, views):
            view = views[out_name]
            np.mean(env[x_name], axis=axes, dtype=np.float32,
                    keepdims=True, out=view)
            env[out_name] = view
        return run

    def _o3_concat(self, node: Node):
        out_name = node.outputs[0]
        oshape = self._o3_view_shape(out_name)
        if oshape is None or self._static_dtype(out_name) != np.float32:
            return None
        in_names = [t for t in node.inputs if t]
        if not in_names or any(self._static_dtype(t) != np.float32
                               for t in in_names):
            return None
        axis = node.int_attr("axis") % len(oshape)

        def run(env, views):
            view = views[out_name]
            sl: List[slice] = [slice(None)] * len(oshape)
            pos = 0
            for nm in in_names:
                a = env[nm]
                width = a.shape[axis]
                sl[axis] = slice(pos, pos + width)
                view[tuple(sl)] = a
                pos += width
            env[out_name] = view
        return run

    def _o3_transpose(self, node: Node):
        out_name = node.outputs[0]
        xs = self._static_shape(node.inputs[0])
        if xs is None or self._o3_view_shape(out_name) is None:
            return None
        if self._static_dtype(out_name) != np.float32:
            return None
        perm = list(node.ints_attr("perm")) or list(range(len(xs)))[::-1]
        x_name = node.inputs[0]

        def run(env, views):
            view = views[out_name]
            np.copyto(view, np.transpose(env[x_name], perm))
            env[out_name] = view
        return run

    def _o3_split(self, node: Node):
        xs = self._static_shape(node.inputs[0])
        if xs is None:
            return None
        axis = node.int_attr("axis", 0) % len(xs)
        if "split" in node.attrs:
            sizes = list(node.ints_attr("split"))
        elif len(node.inputs) > 1 and node.inputs[1]:
            sv = self._const_value(node.inputs[1])
            if sv is None:
                return None
            sizes = [int(v) for v in sv.tolist()]
        else:
            sizes = [xs[axis] // len(node.outputs)] * len(node.outputs)
        if len(sizes) != len(node.outputs) or sum(sizes) != xs[axis]:
            return None
        if any(self._o3_view_shape(o) is None or
               self._static_dtype(o) != np.float32 for o in node.outputs):
            return None
        slicers = []
        pos = 0
        for size in sizes:
            sl = [slice(None)] * len(xs)
            sl[axis] = slice(pos, pos + size)
            slicers.append(tuple(sl))
            pos += size
        x_name = node.inputs[0]
        outputs = list(node.outputs)

        def run(env, views):
            x = env[x_name]
            for o, sl in zip(outputs, slicers):
                view = views[o]
                np.copyto(view, x[sl])
                env[o] = view
        return run

    def _o3_fused(self, node: Node):
        out_name = node.outputs[0]
        if self._o3_view_shape(out_name) is None or \
                self._static_dtype(out_name) != np.float32 or \
                self._static_dtype(node.inputs[0]) != np.float32:
            return None
        epi = _o3_epilogue(list(node.attrs.get("fused_ops") or ()))
        if epi is None or not epi[0]:
            return None
        stages, needs_tmp = epi
        x_name = node.inputs[0]

        def run(env, views):
            view = views[out_name]
            tmp = self._buffer(("o3.et", id(node)), view.shape,
                               np.float32) if needs_tmp else None
            _o3_apply(stages, env[x_name], view, tmp)
            env[out_name] = view
        return run

    def _o3_relu(self, node: Node):
        out_name = node.outputs[0]
        if self._o3_view_shape(out_name) is None or \
                self._static_dtype(out_name) != np.float32:
            return None
        x_name = node.inputs[0]

        def run(env, views):
            view = views[out_name]
            np.maximum(env[x_name], 0, out=view)
            env[out_name] = view
        return run

    def _o3_binary(self, node: Node):
        out_name = node.outputs[0]
        if len(node.inputs) < 2 or not node.inputs[0] or not node.inputs[1]:
            return None
        if self._o3_view_shape(out_name) is None or \
                self._static_dtype(out_name) != np.float32:
            return None
        if self._static_dtype(node.inputs[0]) != np.float32 or \
                self._static_dtype(node.inputs[1]) != np.float32:
            return None
        fn = _OUT_BINARY[node.op_type]
        a_name, b_name = node.inputs[0], node.inputs[1]

        def run(env, views):
            view = views[out_name]
            fn(env[a_name], env[b_name], out=view)
            env[out_name] = view
        return run

    def _o3_fallback(self, base_run: _StepFn, outputs: List[str]):
        """Generic kernel + copy into the arena slot when shapes agree."""
        def run(env, views):
            outs = base_run(env)
            for nm, val in zip(outputs, outs):
                vw = views.get(nm)
                if vw is not None and getattr(val, "shape", None) == vw.shape \
                        and val.dtype == vw.dtype:
                    np.copyto(vw, val)
                    env[nm] = vw
                else:
                    env[nm] = val
        return run

    # -- O3 runtime -----------------------------------------------------
    def _o3_views(self) -> Dict[str, np.ndarray]:
        """This thread's arena view table (one arena per thread)."""
        views = getattr(self._tls, "o3_views", None)
        if views is None:
            arena = np.empty(max(self._arena.peak_bytes, 1), dtype=np.uint8)
            views = {}
            for name, off in self._arena.offsets.items():
                shape, dt = self._o3_slots[name]
                nb = self._arena.sizes[name]
                views[name] = arena[off:off + nb].view(dt).reshape(shape)
            self._tls.o3_arena = arena
            self._tls.o3_views = views
        return views

    def _run_o3(self, feeds, fetch):
        names = list(fetch) if fetch is not None else self.graph.output_names
        if fetch is not None and \
                any(n in self._o3_unsafe_fetch for n in names):
            # arena contents are clobbered by slot reuse before the run
            # ends — serve exotic fetches from the serial reference path
            return self._run(feeds, fetch)
        env = dict(self._base_env)
        for name, shape, want in self._o3_feeds:
            if name not in feeds:
                raise ExecutionError(f"missing feed for input {name!r}")
            arr = np.asarray(feeds[name])
            if tuple(arr.shape) != shape:
                raise ExecutionError(
                    f"feed {name!r}: shape {arr.shape} != declared {shape}")
            if arr.dtype != want:
                arr = arr.astype(want)
            env[name] = arr
        if not self._o3_calibrated:
            with self._lock:
                if not self._o3_calibrated:
                    # first run is exclusive: it decides, step by step,
                    # which outputs need the subnormal flush, applying
                    # each flush as values flow so run 1 is bit-identical
                    # to every steady-state run.  Flags freeze here.
                    self._o3_exec_serial(env, self._o3_views(),
                                         calibrate=True)
                    self._o3_calibrated = True
                    return self._o3_gather(env, names)
        self._o3_exec_serial(env, self._o3_views())
        return self._o3_gather(env, names)

    def _o3_exec_serial(self, env, views, calibrate: bool = False) -> None:
        for st in self._o3_order:
            try:
                st.run(env, views)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"execution failed at "
                    f"{st.node.name or st.node.op_type!r}: {exc}") from exc
            if calibrate and not st.ftz and st.fouts:
                self._o3_calibrate_step(st, env)
            if st.ftz:
                self._o3_flush(st, env)

    def _o3_calibrate_step(self, st: _O3Step, env) -> None:
        """Flag the step if its outputs are measurably subnormal.

        Random-weight deep stacks drive activations toward zero until
        they underflow into subnormals, and x86 float units fall off
        their fast path by 10-40x on subnormal operands.  Flushing
        every tensor would cost more than it saves, so only steps whose
        calibration-run outputs carry more than ``max(16, size/512)``
        subnormals are flagged.
        """
        for nm in st.fouts:
            v = env.get(nm)
            if v is None or v.dtype != np.float32 or v.size == 0:
                continue
            mag = np.abs(v)
            subnormal = int(np.count_nonzero((mag > 0) & (mag < _TINY)))
            if subnormal > max(16, v.size // 512):
                st.ftz = True
                return

    def _o3_flush(self, st: _O3Step, env) -> None:
        """Flush subnormals to zero in the step's float32 outputs.

        ``|v| >= TINY`` evaluates to a 0/1 float mask (NaN compares
        false, and NaN*0 is NaN, so NaN/Inf payloads survive); the
        multiply zeroes exactly the subnormal lanes in place.  The
        perturbation is bounded by the largest subnormal (~1.18e-38),
        far below the O2/O3 tolerance budget.
        """
        for nm in st.fouts:
            v = env.get(nm)
            if v is None or v.dtype != np.float32 or v.size == 0:
                continue
            mask = self._buffer(("o3.ftz", nm), v.shape, np.float32)
            np.abs(v, out=mask)
            np.greater_equal(mask, _TINY, out=mask)
            np.multiply(v, mask, out=v)

    def _o3_gather(self, env, names):
        missing = [n for n in names if n not in env]
        if missing:
            raise ExecutionError(
                f"requested tensors never produced: {missing}")
        return {n: env[n].copy() if n in self._o3_gather_copy else env[n]
                for n in names}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, feeds: Dict[str, np.ndarray],
            fetch: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Execute the plan; same contract as :meth:`Executor.run`.

        Per-op spans are opt-in and sampled: the current tracer must be
        enabled with ``plan_ops=True``, and only every
        ``plan_op_sample``-th run of this plan is traced — replay loops
        would otherwise drown the trace.  Untraced runs pay one tracer
        lookup, nothing per step.

        Runs are concurrency-safe at every level: scratch state is
        per-thread, so callers may share one plan across threads.  O3
        traced runs take the step-by-step reference path, which carries
        the per-op spans.
        """
        tracer = get_tracer()
        with self._lock:
            self._run_count += 1
            count = self._run_count
        if not (tracer.enabled and tracer.plan_ops
                and (count - 1) % tracer.plan_op_sample == 0):
            if self._o3_steps is not None:
                return self._run_o3(feeds, fetch)
            return self._run(feeds, fetch)
        with tracer.span("plan.run", graph=self.graph.name,
                         steps=self.num_steps, run=count):
            return self._run(feeds, fetch, tracer)

    def _run(self, feeds, fetch, tracer=None):
        env: Dict[str, np.ndarray] = {}
        for t in self.graph.inputs:
            if t.name not in feeds:
                raise ExecutionError(f"missing feed for input {t.name!r}")
            arr = np.asarray(feeds[t.name])
            if tuple(arr.shape) != t.shape:
                raise ExecutionError(
                    f"feed {t.name!r}: shape {arr.shape} != declared {t.shape}")
            env[t.name] = arr
        if self._weights is None:
            # materialize in the original graph's initializer order with
            # the seeded generator — the exact Executor weight stream
            rng = np.random.default_rng(self.seed)
            self._weights = {name: init.materialize(rng)
                             for name, init in self.graph.initializers.items()}
        env.update(self._weights)
        env.update(self._folded_consts)
        names = list(fetch) if fetch is not None else self.graph.output_names
        keep: Set[str] = set(names) - self._protected if fetch is not None \
            else set()
        for step in self._steps:
            try:
                if tracer is None:
                    outs = step.run(env)
                else:
                    # op-type tag + model-layer name: the plan executes
                    # model-level nodes, so these spans are the model
                    # side of the layer-mapping timeline
                    with tracer.span(f"op.{step.node.op_type}",
                                     op=step.node.name or "",
                                     op_type=step.node.op_type):
                        outs = step.run(env)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(
                    f"execution failed at "
                    f"{step.node.name or step.node.op_type!r}: {exc}"
                ) from exc
            for oname, oval in zip(step.outputs, outs):
                env[oname] = oval
            for dead in step.release:
                if dead not in keep:
                    env.pop(dead, None)
        missing = [n for n in names if n not in env]
        if missing:
            raise ExecutionError(f"requested tensors never produced: {missing}")
        return {n: env[n] for n in names}

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    @property
    def num_folded(self) -> int:
        """Nodes eliminated or absorbed relative to the source graph."""
        return len(self.graph.nodes) - len(self._steps)

    @property
    def num_fused_steps(self) -> int:
        """Steps that execute work absorbed from neighboring nodes.

        Counts conv/GEMM steps carrying a fused epilogue or folded
        BatchNorm parameters, and fused elementwise chains — the plan
        side of the backend planner's multi-node / folded fusion
        groups.
        """
        return sum(1 for s in self._steps
                   if s.node.attrs.get("fused_ops")
                   or "folded_bn" in s.node.attrs
                   or s.node.op_type == "FusedElementwise")

    @property
    def schedule(self) -> Optional[Schedule]:
        """The O3 dataflow schedule (None below level 3)."""
        return self._schedule

    @property
    def arena_peak_bytes(self) -> int:
        """Static arena size of the O3 memory plan (0 below level 3)."""
        return self._arena.peak_bytes if self._arena is not None else 0

    @property
    def o3_stats(self) -> Dict[str, int]:
        """O3 compile statistics: step modes, schedule and arena sizes."""
        return dict(self._o3_stats) if self._o3_steps is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionPlan({self.graph.name!r}, {self.num_steps} steps, "
                f"{self.num_fused_steps} fused, {self.num_folded} folded, "
                f"O{self.optimize_level})")


def compile_plan(graph: Graph, seed: int = 0, fold: bool = True,
                 optimize: int = 0) -> ExecutionPlan:
    """Compile ``graph`` for repeated execution.

    ``optimize`` selects the rewrite pipeline level (see
    :data:`repro.ir.passes.OPTIMIZE_LEVELS`): 0 folds shape constants
    only, 1 adds bit-exact fusion rewrites and fast kernels, 2 adds
    BatchNorm folding and numerics-relaxed kernels, 3 adds dataflow
    scheduling, static arena memory planning and weight pre-packing.
    """
    return ExecutionPlan(graph, seed=seed, fold=fold, optimize=optimize)
