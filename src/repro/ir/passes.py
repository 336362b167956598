"""Graph transformation passes for the compiled execution plan.

The plan (:mod:`repro.ir.plan`) runs the model's own ONNX nodes; these
are its only rewrites:

* :func:`fold_shape_constants` folds statically known ``Shape`` nodes
  and pre-computes every node whose inputs are all initializers with
  data;
* :func:`fold_batchnorm` merges inference-mode BatchNorm into the
  preceding convolution's weights and bias.

Operator fusion is modelled, never executed: the backend
:class:`~repro.backends.optimizer.FusionPlanner` decides which ops
share a backend layer, and no pass here rewrites the graph into that
structure.

:func:`optimize_graph` sequences the passes into the leveled pipeline
the plan compiler uses (levels 0 and 1 = shape-constant folding,
levels 2 and 3 = adds BatchNorm weight folding; the levels differ
further only in the plan's kernels and O3's calibrated subnormal
flush, see :mod:`repro.ir.plan`).

All passes mutate a *copy* unless ``in_place=True`` and return the
resulting graph.
"""
from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from ..obs.trace import get_tracer
from .executor import _EXEC
from .graph import Graph
from .node import Node
from .shape_inference import _shape_slice_bounds, infer_shapes
from .tensor import DataType, Initializer, TensorInfo

__all__ = ["fold_batchnorm", "fold_shape_constants", "optimize_graph",
           "plan_pipeline", "OPTIMIZE_LEVELS"]


def fold_batchnorm(graph: Graph, in_place: bool = False) -> Graph:
    """Fold ``Conv -> BatchNormalization`` pairs into the conv weights.

    With BN statistics (scale γ, bias β, mean μ, var σ²) the folded
    convolution uses ``W' = W · γ/√(σ²+ε)`` per output channel and
    ``b' = (b − μ) · γ/√(σ²+ε) + β``.  Only applied when the conv's
    output feeds exactly the BN.  Weights are materialized on demand.

    One scan in topological order: a fold changes only which node
    produces the BN's output (consumer counts never change), so a
    ``Conv -> BN -> BN`` chain folds completely as the scan reaches
    the second BN.
    """
    g = graph if in_place else graph.copy()
    consumers = g.consumer_map()
    producers = dict(g.producer_map())
    outputs = set(g.output_names)
    folded: List[Node] = []
    for bn in list(g.toposort()):
        if bn.op_type != "BatchNormalization":
            continue
        producer = producers.get(bn.inputs[0])
        if producer is None or producer.op_type != "Conv":
            continue
        if len(consumers.get(producer.outputs[0], [])) != 1:
            continue
        if producer.outputs[0] in outputs:
            continue
        if not all(g.is_initializer(t) for t in bn.inputs[1:5]):
            continue
        w_init = g.initializers[producer.inputs[1]]
        gamma = g.initializers[bn.inputs[1]].materialize().astype(np.float64)
        beta = g.initializers[bn.inputs[2]].materialize().astype(np.float64)
        mean = g.initializers[bn.inputs[3]].materialize().astype(np.float64)
        var = g.initializers[bn.inputs[4]].materialize().astype(np.float64)
        eps = bn.float_attr("epsilon", 1e-5)
        # the reference executor normalizes by sqrt(var^2 + eps) so
        # lazily-materialized variances (which can be negative) stay
        # safe; fold with the same convention
        inv_std = gamma / np.sqrt(var ** 2 + eps)
        w = w_init.materialize().astype(np.float64)
        new_w = (w * inv_std.reshape(-1, 1, 1, 1)).astype(np.float32)
        if len(producer.inputs) > 2 and producer.inputs[2]:
            b = g.initializers[producer.inputs[2]].materialize().astype(np.float64)
        else:
            b = np.zeros(w.shape[0], dtype=np.float64)
        new_b = ((b - mean) * inv_std + beta).astype(np.float32)
        # marker so plans/reports can count BN-folded layers the way
        # the backend planner counts its `folded` conv groups
        producer.attrs["folded_bn"] = bn.name or bn.op_type
        # install folded parameters under fresh names
        w_name = f"{producer.inputs[1]}::folded"
        b_name = f"{w_name}.bias"
        g.add_initializer(Initializer(
            TensorInfo(w_name, new_w.shape, DataType.FLOAT32), new_w))
        g.add_initializer(Initializer(
            TensorInfo(b_name, new_b.shape, DataType.FLOAT32), new_b))
        producer.inputs = [producer.inputs[0], w_name, b_name]
        # splice the BN out; the conv adopts the *BN's* output name
        # (its own old output had no other consumer, and the BN's
        # name may be a declared graph output, which must survive)
        folded.append(bn)
        producer.outputs = [bn.outputs[0]]
        producers[bn.outputs[0]] = producer
    if folded:
        g.remove_nodes(folded)
    infer_shapes(g)
    return g


#: never fold these even when constant (value is data-dependent noise)
_NO_FOLD = {"RandomNormal", "RandomUniform"}


def fold_shape_constants(graph: Graph, in_place: bool = False,
                         max_elements: int = 1 << 20) -> Graph:
    """Fold ``Shape`` nodes with statically known input shapes, then
    collapse every downstream constant subgraph in one worklist sweep.

    Because the executor rejects feeds whose shape differs from the
    declared input shape, a ``Shape`` node over a fully static tensor is
    a compile-time constant — and once it folds, the shape-arithmetic
    chains behind ``Reshape``/``Slice``/``Expand`` operands
    (``Shape -> Gather -> Unsqueeze -> Concat``) fold with it, as does
    any other node whose inputs are all data-carrying initializers.
    The pass seeds a worklist with foldable nodes and pushes consumers
    as their inputs become constant, so it is linear in graph size.
    Results larger than ``max_elements`` stay unfolded, and virtual
    (lazily drawn) weights are never materialized.  Folding is
    value-preserving: each node is evaluated by the same kernel the
    executor would have used at run time.
    """
    g = graph if in_place else graph.copy()
    if not g.value_info:
        infer_shapes(g)

    def _const_inputs(node: Node) -> Optional[List[Optional[np.ndarray]]]:
        if not node.inputs:
            return None
        vals: List[Optional[np.ndarray]] = []
        for t in node.inputs:
            if not t:
                vals.append(None)
                continue
            init = g.initializers.get(t)
            if init is None or init.is_virtual:
                return None
            vals.append(init.data)
        return vals

    doomed: List[Node] = []
    doomed_ids: Set[int] = set()
    worklist: List[Node] = []
    for node in g.toposort():
        if node.op_type == "Shape":
            try:
                shape = g.tensor(node.inputs[0]).shape
            except KeyError:
                continue
            if all(isinstance(d, int) for d in shape):
                worklist.append(node)
        elif node.op_type not in _NO_FOLD and node.op_type in _EXEC \
                and _const_inputs(node) is not None:
            worklist.append(node)

    consumers = g.consumer_map()
    while worklist:
        node = worklist.pop()
        if id(node) in doomed_ids:
            continue
        if node.op_type == "Shape":
            shape = g.tensor(node.inputs[0]).shape
            start, end = _shape_slice_bounds(
                len(shape), node.int_attr("start", 0),
                node.int_attr("end", len(shape)))
            results = [np.asarray(shape[start:end], dtype=np.int64)]
        else:
            inits = _const_inputs(node)
            if inits is None:
                continue
            try:
                out_elems = sum(g.tensor(o).numel for o in node.outputs)
            except (KeyError, TypeError):
                continue
            if out_elems > max_elements:
                continue
            try:
                results = _EXEC[node.op_type](node, inits)
            except Exception:
                continue
        for out_name, value in zip(node.outputs, results):
            value = np.asarray(value)
            g.add_initializer(Initializer(
                TensorInfo(out_name, value.shape,
                           DataType.from_numpy(value.dtype)),
                value))
            for consumer in consumers.get(out_name, []):
                if id(consumer) in doomed_ids:
                    continue
                if consumer.op_type in _NO_FOLD \
                        or consumer.op_type not in _EXEC:
                    continue
                worklist.append(consumer)
        doomed.append(node)
        doomed_ids.add(id(node))
    if doomed:
        g.remove_nodes(doomed)
        infer_shapes(g)
    return g


# ---------------------------------------------------------------------------
# the leveled plan-compiler pipeline
# ---------------------------------------------------------------------------
_PASS_REGISTRY = {
    "fold_shape_constants": fold_shape_constants,
    "fold_batchnorm": fold_batchnorm,
}

_O2_PASSES = ("fold_shape_constants", "fold_batchnorm")

#: optimization levels for :func:`optimize_graph` / ``compile_plan``:
#: 0 and 1 fold shape constants only (level 1's bit-exact fast kernels
#: live in the plan); 2 adds BatchNorm weight folding (values match
#: within float rounding, not bit-for-bit) and unlocks the plan's
#: numerics-relaxed depthwise MAC loop.
OPTIMIZE_LEVELS = {
    0: ("fold_shape_constants",),
    1: ("fold_shape_constants",),
    2: _O2_PASSES,
    # O3 runs the same graph rewrites as O2; its subnormal flush lives
    # in plan execution, not graph rewriting
    3: _O2_PASSES,
}


def plan_pipeline(level: int) -> Tuple[str, ...]:
    """The ordered pass names :func:`optimize_graph` runs at ``level``."""
    try:
        return OPTIMIZE_LEVELS[int(level)]
    except (KeyError, ValueError, TypeError):
        raise ValueError(
            f"unknown optimization level {level!r}; "
            f"expected one of {sorted(OPTIMIZE_LEVELS)}") from None


def optimize_graph(graph: Graph, level: int = 1,
                   in_place: bool = False) -> Graph:
    """Run the leveled optimization pipeline (see ``OPTIMIZE_LEVELS``).

    Idempotent by construction: optimizing an already-optimized graph
    is a no-op.  Each pass runs under a ``pass.<name>`` trace span with
    node counts before/after, nested in one ``optimize`` span.
    """
    pipeline = plan_pipeline(level)
    g = graph if in_place else graph.copy()
    tracer = get_tracer()
    with tracer.span("optimize", graph=g.name, level=int(level),
                     passes=len(pipeline)) as span:
        before_total = len(g.nodes)
        for name in pipeline:
            before = len(g.nodes)
            with tracer.span(f"pass.{name}") as pass_span:
                g = _PASS_REGISTRY[name](g, in_place=True)
                pass_span.set("nodes_before", before)
                pass_span.set("nodes_after", len(g.nodes))
        span.set("nodes_before", before_total)
        span.set("nodes_after", len(g.nodes))
    return g
