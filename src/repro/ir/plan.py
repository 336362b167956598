"""Compiled execution plans for the reference executor.

:meth:`repro.ir.executor.Executor.run` resolves everything on every call:
it re-runs kernel dispatch, re-parses node attributes, re-resolves
padding, and allocates fresh im2col / padding scratch for every
convolution.  That is the right trade-off for a
one-shot reference check, but repeated runs of one graph — the
differential harness (:mod:`repro.check`), ``proof run --execute`` —
redo work that is invariant across runs.  Profiling never executes a
model: :meth:`repro.core.profiler.Profiler.profile` reads latencies
from the backend, so nothing on the profile path compiles a plan.

:class:`ExecutionPlan` moves the invariant work to compile time:

* **weights are drawn once** — the plan keeps the read-only
  :func:`~repro.ir.executor.seeded_weights` set that the
  :class:`~repro.ir.executor.Executor` runs on, so an executor and the
  plans of one graph and seed share one draw; the caller's graph is
  never written to;
* **constant subgraphs fold ahead of time** — the plan compiles against
  a copy rewritten by :func:`repro.ir.passes.fold_shape_constants`, so
  statically-known ``Shape`` chains and other constant subgraphs never
  execute at run time;
* **topological order, kernel dispatch and attribute parsing resolve
  once** — each node becomes a step with its kernel bound;
* **one writer per specialised op** — Conv, Gemm, Max/AveragePool and
  the float32 copy/elementwise ops compute into a fresh ``np.empty``
  output at every level.  Every other op runs the executor's kernel
  and keeps that kernel's array;
* **liveness-based buffer release** — every intermediate is dropped
  right after its last consumer, bounding peak memory to the live set
  instead of the whole tensor table;
* **scratch buffers** — convolution im2col/padding buffers and pooling
  window stacks are allocated once per plan and reused across runs
  (padding borders are written once; only the interior changes).

Plans run the model's own ONNX nodes: operator fusion is modelled by
the backend planner (:mod:`repro.backends.optimizer`), never executed
here.  They compile against a graph rewritten by the leveled pipeline
(:func:`repro.ir.passes.optimize_graph`):

* ``optimize=0`` (default) — plan-time shape-constant folding only,
  bit-identical to ``Executor.run()``;
* ``optimize=1`` adds the bit-exact fast paths — 1x1 convolutions skip
  im2col and go straight to GEMM, Gemm caches its transposed /
  accumulation-typed operands — still bit-identical;
* ``optimize=2`` adds BatchNorm weight folding and the
  numerics-relaxed depthwise MAC-loop kernel; outputs then match the
  legacy executor within float rounding (``rtol=1e-5``), not
  bit-for-bit;
* ``optimize=3`` is O2's steps plus an adaptive **subnormal flush**:
  the first run finds the writers whose float32 outputs carry many
  subnormals, and every run zeroes those denormal activations the way
  accelerator runtimes do by default — x86 BLAS kernels slow down by
  more than an order of magnitude on subnormal inputs, so random-weight
  deep stacks would otherwise profile the denormal unit, not the model.
  O3 shares O2's tolerance contract (subnormal flushes perturb values
  by < 1.2e-38, far below the O2 ``atol``).

Every level runs the same steps through the same loop, so traced runs
(``plan_ops=True``) emit one ``op.*`` span per step from the kernels
the level really runs, flush included.

A level-0/1 plan's results are bit-identical to the legacy
``Executor.run()`` path: weights are the same shared set, and the
specialised steps perform exactly the legacy arithmetic on reused
scratch buffers.  Scratch buffers belong to the plan and are reused by
every run, so a plan is for one thread at a time: each caller compiles
and runs its own.  Outputs are never scratch: every array a run returns
belongs to the caller.  The first O3 run also calibrates the
flush-to-zero pass.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..obs.trace import get_tracer
from .executor import (ExecutionError, _EXEC, _avgpool_divisor, _im2col,
                       _pool_geometry, _resolve_pads_for_shape,
                       seeded_weights)
from .graph import Graph
from .node import Node
from .passes import optimize_graph
from .shape_inference import infer_shapes

__all__ = ["ExecutionPlan", "compile_plan"]

#: a step takes the tensor environment and returns its output arrays
_StepFn = Callable[[Dict[str, np.ndarray]], List[np.ndarray]]

#: smallest normal float32; anything below (but nonzero) is subnormal
_TINY = np.float32(1.1754944e-38)

#: ops whose output is a pure view of their first input under static
#: shapes; compiled to one ``reshape`` (:meth:`ExecutionPlan._compile_view`)
_ALIAS_OPS = frozenset(
    {"Reshape", "Flatten", "Identity", "Dropout", "Squeeze", "Unsqueeze"})

#: binary ops with a float32 ``out=`` writer
_OUT_BINARY = {"Add": np.add, "Sub": np.subtract, "Mul": np.multiply,
               "Div": np.divide, "Min": np.minimum, "Max": np.maximum,
               "Pow": np.power}


def _buffer(scratch: Dict[object, np.ndarray], key: object,
            shape: Tuple[int, ...], dtype,
            fill: Optional[float] = None) -> np.ndarray:
    """The scratch array for ``key`` in ``scratch``.

    Step closures hold the plan's scratch dict, never the plan, so a
    dropped plan is freed by refcount rather than by the cyclic GC.
    """
    buf = scratch.get(key)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        if fill is None:
            buf = np.empty(shape, dtype=dtype)
        else:
            buf = np.full(shape, fill, dtype=dtype)
        scratch[key] = buf
    return buf


class _Step:
    """One compiled node: bound kernel, wiring, release list and flush.

    ``run(env)`` returns the step's output arrays.  ``fouts`` lists the
    float32 outputs a subnormal flush would apply to (O3 writers only —
    their outputs are always fresh arrays of their own, never views of
    an input); ``ftz`` is set by the calibration run for steps whose
    outputs carry enough subnormals to poison downstream BLAS kernels.
    """

    __slots__ = ("node", "run", "outputs", "release", "fouts", "ftz")

    def __init__(self, node: Node, run: _StepFn, fouts: List[str]) -> None:
        self.node = node
        self.run = run
        self.outputs = list(node.outputs)
        self.release: List[str] = []
        self.fouts = fouts
        self.ftz = False


class ExecutionPlan:
    """A graph compiled for repeated execution (see module docstring)."""

    def __init__(self, graph: Graph, seed: int = 0,
                 optimize: int = 0) -> None:
        self.graph = graph
        self.seed = seed
        self.optimize_level = int(optimize)
        work = graph.copy()
        if not work.value_info:
            infer_shapes(work)
        # the read-only seeded weight set the executor runs on, shared
        # with every other runtime built over this graph and seed
        weights = seeded_weights(graph, seed)
        if self.optimize_level >= 2:
            # weight-materializing passes (BN folding) run next: pin the
            # drawn weights on the work copy so folded parameters derive
            # from exactly the values the legacy executor uses
            for name, arr in weights.items():
                init = work.initializers.get(name)
                if init is not None and init.data is None:
                    init.data = arr
        work = optimize_graph(work, level=self.optimize_level, in_place=True)
        self.plan_graph = work
        # keep only the weights the compiled graph reads: originals that
        # BN folding replaced would otherwise stay alive with the plan
        used = {t for node in work.nodes for t in node.present_inputs}
        used.update(work.output_names)
        #: constants produced by plan-time folding (always materialized)
        self._folded_consts: Dict[str, np.ndarray] = {
            name: init.data for name, init in work.initializers.items()
            if name not in graph.initializers and init.data is not None}
        self._stable_names: Set[str] = \
            set(graph.initializers) | set(self._folded_consts)
        self._base_env: Dict[str, np.ndarray] = {
            name: arr for name, arr in weights.items() if name in used}
        self._base_env.update(self._folded_consts)
        self._feeds = [(t.name, tuple(t.shape), np.dtype(t.dtype.to_numpy()))
                       for t in graph.inputs]
        #: scratch buffers reused by every run (one thread at a time)
        self._scratch: Dict[object, np.ndarray] = {}
        self._protected = set(work.output_names)
        #: below O3 there is nothing to calibrate
        self._calibrated = self.optimize_level < 3
        self._steps = self._compile_steps()
        self._plan_liveness()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile_steps(self) -> List[_Step]:
        writers = {"Conv": self._compile_conv, "Gemm": self._compile_gemm,
                   "MaxPool": self._compile_pool,
                   "AveragePool": self._compile_pool,
                   "GlobalAveragePool": self._compile_gap,
                   "Concat": self._compile_concat,
                   "Transpose": self._compile_transpose,
                   "Split": self._compile_split, "Relu": self._compile_relu}
        writers.update({op: self._compile_binary for op in _OUT_BINARY})
        steps: List[_Step] = []
        for node in self.plan_graph.toposort():
            fn = _EXEC.get(node.op_type)
            if fn is None:
                raise ExecutionError(
                    f"no executor for op type {node.op_type!r}")
            compile_writer = writers.get(node.op_type)
            run = compile_writer(node) if compile_writer else None
            fouts: List[str] = []
            if run is not None and self.optimize_level >= 3:
                fouts = [o for o in node.outputs
                         if self._static_dtype(o) == np.float32]
            if run is None and node.op_type in _ALIAS_OPS:
                run = self._compile_view(node)
            steps.append(_Step(node, run or self._compile_generic(node, fn),
                               fouts))
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

        def run(env):
            return fn(node, [env[t] if t else None for t in input_names])
        return run

    def _compile_view(self, node: Node) -> Optional[_StepFn]:
        """A view op with static shapes: one reshape of its input, the
        same view the executor's kernel returns, without re-reading
        shape operands every run."""
        xs = self._static_shape(node.inputs[0]) if node.inputs else None
        oshape = self._static_shape(node.outputs[0])
        if xs is None or oshape is None or len(node.outputs) != 1 or \
                int(np.prod(xs)) != int(np.prod(oshape)):
            return None
        x_name = node.inputs[0]

        def run(env):
            return [env[x_name].reshape(oshape)]
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

    def _float32(self, node: Node,
                 inputs: Optional[List[str]] = None) -> bool:
        """The node's outputs and ``inputs`` (default: every present
        input) are statically float32."""
        names = node.present_inputs if inputs is None else inputs
        return all(self._static_dtype(t) == np.float32
                   for t in list(names) + list(node.outputs))

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
        hw = out_h * out_w
        oshape = (n, c_out, out_h, out_w)
        x_name, w_name = node.inputs[0], node.inputs[1]
        b_name = node.inputs[2] if len(node.inputs) > 2 and node.inputs[2] \
            else None
        # the reshaped/accumulation-typed weight view is cacheable only
        # when the weight tensors are run-invariant (plan weights or
        # folded constants), not step outputs
        cacheable = w_name in self._stable_names and \
            (b_name is None or b_name in self._stable_names)
        packed: Dict[object, tuple] = {}
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
        # with few output pixels the per-tap numpy dispatch dominates:
        # gather windows in one strided copy and run one batched
        # per-channel GEMV instead of kh*kw multiply/accumulate passes
        small_dw = fast_depthwise and dh == 1 and dw == 1 and hw <= 32
        scratch = self._scratch

        def pack(env, acc):
            wt = env[w_name]
            b = env[b_name] if b_name else None
            bias = None if b is None \
                else b.reshape(1, -1, 1, 1).astype(acc, copy=False)
            if fast_depthwise:
                # (c_out, kh*kw): one weight scalar per channel/tap
                w2 = wt.reshape(c_out, kh * kw).astype(acc, copy=False)
                taps = [np.ascontiguousarray(w2[:, k].reshape(1, c_out, 1, 1))
                        for k in range(kh * kw)]
                return w2, taps, bias
            # (group, cg_out, cg_in*kh*kw): the executor's weight view
            return wt.reshape(group, cg_out, -1).astype(acc, copy=False), \
                None, bias

        def weights_for(env, acc):
            if not cacheable:
                return pack(env, acc)
            got = packed.get(acc)
            if got is None:
                got = packed[acc] = pack(env, acc)
            return got

        def depthwise(x, w2, taps, y):
            if padded:
                xp = _buffer(
                    scratch, ("conv.xp", id(node)),
                    (n, c_in, h + ph0 + ph1, w_dim + pw0 + pw1),
                    x.dtype, fill=0)
                xp[:, :, ph0:ph0 + h, pw0:pw0 + w_dim] = x
            else:
                xp = x
            if small_dw:
                win = _buffer(scratch, ("conv.dwwin", id(node)),
                              (n, c_out, out_h, out_w, kh, kw), y.dtype)
                np.copyto(win, sliding_window_view(
                    xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw])
                np.matmul(win.reshape(n, c_out, hw, kh * kw), w2[:, :, None],
                          out=y.reshape(n, c_out, hw, 1))
                return
            tmp = _buffer(scratch, ("conv.dwtmp", id(node)), oshape, y.dtype)
            for i in range(kh):
                hi = i * dh
                for j in range(kw):
                    wj = j * dw
                    patch = xp[:, :, hi:hi + sh * out_h:sh,
                               wj:wj + sw * out_w:sw]
                    if i == 0 and j == 0:
                        # the first tap writes the accumulator directly
                        np.multiply(patch, taps[0], out=y)
                    else:
                        np.multiply(patch, taps[i * kw + j], out=tmp)
                        y += tmp

        def gemm(x, w_all, y, acc):
            if fast_1x1:
                if sh == 1 and sw == 1:
                    col2d = x.reshape(n, c_in, hw)
                else:
                    sb = _buffer(scratch, ("conv.s1", id(node)),
                                 (n, c_in, out_h, out_w), x.dtype)
                    np.copyto(sb, x[:, :, ::sh, ::sw])
                    col2d = sb.reshape(n, c_in, hw)
            else:
                # one im2col over all channels into reused scratch: the
                # same columns the executor's conv builds
                xp = _buffer(
                    scratch, ("conv.xp", id(node)),
                    (n, c_in, h + ph0 + ph1, w_dim + pw0 + pw1),
                    x.dtype, fill=0) if padded else None
                cols = _buffer(scratch, ("conv.cols", id(node)),
                               (n, c_in, kh, kw, out_h, out_w), x.dtype)
                col2d, _, _ = _im2col(x, kh, kw, sh, sw, ph0, pw0, ph1, pw1,
                                      dh, dw, xp=xp, cols=cols)
            if group == 1:
                mat = col2d if col2d.dtype == acc else col2d.astype(acc)
                np.matmul(w_all, mat, out=y.reshape(n, c_out, hw))
                return
            # (group, n, cg_in*kh*kw, M) view; one batched matmul, the
            # executor's grouped conv GEMMs
            colg = col2d.reshape(n, group, -1, hw).transpose(1, 0, 2, 3)
            mat = colg if colg.dtype == acc else colg.astype(acc)
            yg = _buffer(scratch, ("conv.yg", id(node)), (group, n, cg_out, hw),
                         acc)
            np.matmul(w_all[:, None], mat, out=yg)
            np.copyto(y.reshape(n, group, cg_out, hw),
                      yg.transpose(1, 0, 2, 3))

        def run(env):
            x = env[x_name]
            acc = x.dtype if x.dtype == np.float64 else np.float32
            w_all, taps, bias = weights_for(env, acc)
            y = np.empty(oshape, acc)
            if fast_depthwise:
                depthwise(x, w_all, taps, y)
            else:
                gemm(x, w_all, y, acc)
            if bias is not None:
                np.add(y, bias, out=y)
            if y.dtype != x.dtype:
                y = y.astype(x.dtype)
            return [y]
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
        out_name = node.outputs[0]
        oshape = self._static_shape(out_name)
        a_name, b_name = node.inputs[0], node.inputs[1]
        c_name = node.inputs[2] if len(node.inputs) > 2 and node.inputs[2] \
            else None
        if oshape is None or b_name not in self._stable_names or \
                (c_name is not None and c_name not in self._stable_names):
            return None
        trans_a = node.int_attr("transA", 0)
        trans_b = node.int_attr("transB", 0)
        alpha = node.float_attr("alpha", 1.0)
        beta = node.float_attr("beta", 1.0)
        packed: Dict[object, tuple] = {}

        def run(env):
            a0 = env[a_name]
            a = a0.T if trans_a else a0
            acc = np.float64 if a0.dtype == np.float64 else np.float32
            got = packed.get(acc)
            if got is None:
                b = env[b_name]
                got = packed[acc] = (
                    (b.T if trans_b else b).astype(acc, copy=False),
                    None if c_name is None
                    else beta * env[c_name].astype(acc))
            b, c = got
            if a.dtype != acc or not a.flags.c_contiguous:
                a = a.astype(acc)
            y = np.empty(oshape, acc)
            np.matmul(a, b, out=y)
            if alpha != 1.0:
                np.multiply(y, alpha, out=y)
            if c is not None:
                np.add(y, c, out=y)
            if y.dtype != a0.dtype:
                y = y.astype(a0.dtype)
            return [y]
        return run

    # -- pooling --------------------------------------------------------
    def _compile_pool(self, node: Node) -> Optional[_StepFn]:
        xs = self._static_shape(node.inputs[0])
        if xs is None or len(xs) != 4 or \
                len(list(node.ints_attr("kernel_shape"))) != 2:
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
        counts = None if is_max else _avgpool_divisor(node, xs)
        x_name = node.inputs[0]
        scratch = self._scratch

        def run(env):
            x = env[x_name]
            xp = _buffer(
                scratch, ("pool.xp", id(node)),
                (n, c, h + ph0 + ph1 + eh, w_dim + pw0 + pw1 + ew),
                np.float32, fill=fill)
            xp[:, :, ph0:ph0 + h, pw0:pw0 + w_dim] = x
            stacks = _buffer(scratch, ("pool.stacks", id(node)),
                             (kh * kw, n, c, out_h, out_w), np.float32)
            for i in range(kh):
                for j in range(kw):
                    hi, wj = i * dh, j * dw
                    stacks[i * kw + j] = xp[:, :, hi:hi + sh * out_h:sh,
                                            wj:wj + sw * out_w:sw]
            y = np.empty((n, c, out_h, out_w), np.float32)
            if is_max:
                np.max(stacks, axis=0, out=y)
            elif counts is None:
                np.mean(stacks, axis=0, out=y)
            else:
                np.sum(stacks, axis=0, out=y)
                np.divide(y, counts, out=y)
            return [y if y.dtype == x.dtype else y.astype(x.dtype)]
        return run

    # -- float32 copy / elementwise writers -----------------------------
    def _compile_gap(self, node: Node) -> Optional[_StepFn]:
        xs = self._static_shape(node.inputs[0])
        out_name = node.outputs[0]
        oshape = self._static_shape(out_name)
        if xs is None or len(xs) < 3 or oshape is None or \
                not self._float32(node):
            return None
        axes = tuple(range(2, len(xs)))
        x_name = node.inputs[0]

        def run(env):
            y = np.empty(oshape, np.float32)
            np.mean(env[x_name], axis=axes, dtype=np.float32,
                    keepdims=True, out=y)
            return [y]
        return run

    def _compile_concat(self, node: Node) -> Optional[_StepFn]:
        out_name = node.outputs[0]
        oshape = self._static_shape(out_name)
        in_names = node.present_inputs
        if oshape is None or not in_names or not self._float32(node):
            return None
        axis = node.int_attr("axis") % len(oshape)

        def run(env):
            y = np.empty(oshape, np.float32)
            sl: List[slice] = [slice(None)] * len(oshape)
            pos = 0
            for nm in in_names:
                a = env[nm]
                width = a.shape[axis]
                sl[axis] = slice(pos, pos + width)
                y[tuple(sl)] = a
                pos += width
            return [y]
        return run

    def _compile_transpose(self, node: Node) -> Optional[_StepFn]:
        xs = self._static_shape(node.inputs[0])
        out_name = node.outputs[0]
        oshape = self._static_shape(out_name)
        if xs is None or oshape is None or not self._float32(node):
            return None
        perm = list(node.ints_attr("perm")) or list(range(len(xs)))[::-1]
        x_name = node.inputs[0]

        def run(env):
            y = np.empty(oshape, np.float32)
            np.copyto(y, np.transpose(env[x_name], perm))
            return [y]
        return run

    def _compile_split(self, node: Node) -> Optional[_StepFn]:
        xs = self._static_shape(node.inputs[0])
        if xs is None or not self._float32(node, node.inputs[:1]):
            return None
        axis = node.int_attr("axis", 0) % len(xs)
        if "split" in node.attrs:
            sizes = list(node.ints_attr("split"))
        elif len(node.inputs) > 1 and node.inputs[1]:
            sv = self._base_env.get(node.inputs[1])
            if sv is None:
                return None
            sizes = [int(v) for v in sv.tolist()]
        else:
            sizes = [xs[axis] // len(node.outputs)] * len(node.outputs)
        if len(sizes) != len(node.outputs) or sum(sizes) != xs[axis]:
            return None
        shapes = [self._static_shape(o) for o in node.outputs]
        if any(s is None for s in shapes):
            return None
        slicers = []
        pos = 0
        for size in sizes:
            sl = [slice(None)] * len(xs)
            sl[axis] = slice(pos, pos + size)
            slicers.append(tuple(sl))
            pos += size
        x_name = node.inputs[0]
        outputs = list(zip(shapes, slicers))

        def run(env):
            x = env[x_name]
            outs = []
            for shape, sl in outputs:
                y = np.empty(shape, np.float32)
                np.copyto(y, x[sl])
                outs.append(y)
            return outs
        return run

    def _compile_relu(self, node: Node) -> Optional[_StepFn]:
        out_name = node.outputs[0]
        oshape = self._static_shape(out_name)
        if oshape is None or not self._float32(node):
            return None
        x_name = node.inputs[0]

        def run(env):
            y = np.empty(oshape, np.float32)
            np.maximum(env[x_name], 0, out=y)
            return [y]
        return run

    def _compile_binary(self, node: Node) -> Optional[_StepFn]:
        out_name = node.outputs[0]
        oshape = self._static_shape(out_name)
        if len(node.inputs) != 2 or not all(node.inputs) or \
                oshape is None or not self._float32(node):
            return None
        fn = _OUT_BINARY[node.op_type]
        a_name, b_name = node.inputs

        def run(env):
            y = np.empty(oshape, np.float32)
            fn(env[a_name], env[b_name], out=y)
            return [y]
        return run

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, feeds: Dict[str, np.ndarray],
            fetch: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Execute the plan; same contract as :meth:`Executor.run`.

        Feeds are checked against the declared input shapes and cast to
        the declared dtypes.  Per-op spans are opt-in: the current
        tracer must be enabled with ``plan_ops=True``.  Untraced runs
        pay one tracer lookup, nothing per step.  Traced and untraced runs
        execute the same steps, so their outputs are bit-identical.

        Runs reuse the plan's scratch buffers, so one plan runs on one
        thread at a time.  Every returned array belongs to the caller:
        no later run writes to it.
        """
        tracer = get_tracer()
        if not (tracer.enabled and tracer.plan_ops):
            return self._run(feeds, fetch)
        with tracer.span("plan.run", graph=self.graph.name,
                         steps=self.num_steps):
            return self._run(feeds, fetch, tracer)

    def _run(self, feeds, fetch, tracer=None):
        env = dict(self._base_env)
        for name, shape, dtype in self._feeds:
            if name not in feeds:
                raise ExecutionError(f"missing feed for input {name!r}")
            arr = np.asarray(feeds[name])
            if tuple(arr.shape) != shape:
                raise ExecutionError(
                    f"feed {name!r}: shape {arr.shape} != declared {shape}")
            env[name] = arr if arr.dtype == dtype else arr.astype(dtype)
        names = list(fetch) if fetch is not None else self.graph.output_names
        keep: Set[str] = set(names) - self._protected if fetch is not None \
            else set()
        # the first O3 run decides, step by step, which outputs need the
        # subnormal flush, applying each flush as values flow so run 1 is
        # bit-identical to every steady-state run.  Flags freeze here.
        self._execute(env, keep, tracer, calibrate=not self._calibrated)
        self._calibrated = True
        missing = [n for n in names if n not in env]
        if missing:
            raise ExecutionError(f"requested tensors never produced: {missing}")
        return {n: env[n] for n in names}

    def _execute(self, env, keep, tracer=None,
                 calibrate: bool = False) -> None:
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
            if calibrate and not step.ftz and step.fouts:
                self._calibrate_step(step, env)
            if step.ftz:
                self._flush(step, env)
            for dead in step.release:
                if dead not in keep:
                    env.pop(dead, None)

    def _calibrate_step(self, step: _Step, env) -> None:
        """Flag the step if its outputs are measurably subnormal.

        Random-weight deep stacks drive activations toward zero until
        they underflow into subnormals, and x86 float units fall off
        their fast path by 10-40x on subnormal operands.  Flushing
        every tensor would cost more than it saves, so only steps whose
        calibration-run outputs carry more than ``max(16, size/512)``
        subnormals are flagged.
        """
        for nm in step.fouts:
            v = env.get(nm)
            if v is None or v.dtype != np.float32 or v.size == 0:
                continue
            mag = np.abs(v)
            subnormal = int(np.count_nonzero((mag > 0) & (mag < _TINY)))
            if subnormal > max(16, v.size // 512):
                step.ftz = True
                return

    def _flush(self, step: _Step, env) -> None:
        """Flush subnormals to zero in the step's float32 outputs.

        ``|v| >= TINY`` evaluates to a 0/1 float mask (NaN compares
        false, and NaN*0 is NaN, so NaN/Inf payloads survive); the
        multiply zeroes exactly the subnormal lanes in place.  The
        perturbation is bounded by the largest subnormal (~1.18e-38),
        far below the O2/O3 tolerance budget.
        """
        for nm in step.fouts:
            v = env.get(nm)
            if v is None or v.dtype != np.float32 or v.size == 0:
                continue
            mask = _buffer(self._scratch, ("ftz", nm), v.shape, np.float32)
            np.abs(v, out=mask)
            np.greater_equal(mask, _TINY, out=mask)
            np.multiply(v, mask, out=v)

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    @property
    def num_folded(self) -> int:
        """Nodes eliminated or absorbed relative to the source graph."""
        return len(self.graph.nodes) - len(self._steps)

    @property
    def num_fused_steps(self) -> int:
        """Conv steps that carry folded BatchNorm parameters: the plan
        side of the backend planner's ``folded`` conv groups."""
        return sum(1 for s in self._steps if "folded_bn" in s.node.attrs)

    @property
    def arena_peak_bytes(self) -> int:
        """Always 0: plans have no static arena at any level.

        Every writer allocates a fresh output array, which is what lets
        each run hand its arrays to the caller.  Kept because the
        ``plan-exec`` benchmark still reports ``plan.arena_peak_bytes``.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionPlan({self.graph.name!r}, {self.num_steps} steps, "
                f"{self.num_fused_steps} fused, {self.num_folded} folded, "
                f"O{self.optimize_level})")


def compile_plan(graph: Graph, seed: int = 0,
                 optimize: int = 0) -> ExecutionPlan:
    """Compile ``graph`` for repeated execution.

    ``optimize`` selects the rewrite pipeline level (see
    :data:`repro.ir.passes.OPTIMIZE_LEVELS`): 0 folds shape constants
    only, 1 adds bit-exact fast kernels, 2 adds BatchNorm folding and
    numerics-relaxed kernels, 3 adds the calibrated subnormal flush.  The plan reuses its scratch buffers, so
    run it from one thread at a time.
    """
    return ExecutionPlan(graph, seed=seed, optimize=optimize)
