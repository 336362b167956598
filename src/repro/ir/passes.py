"""Graph transformation passes.

These are the *numeric* counterparts of the fusion planning in
:mod:`repro.backends.optimizer`: where the planner only decides which
ops share a backend layer, the passes here actually rewrite the graph —
so the reference executor can validate that the optimizations runtimes
perform are value-preserving:

* :func:`fold_batchnorm` merges inference-mode BatchNorm into the
  preceding convolution's weights and bias;
* :func:`eliminate_identities` removes Identity/Dropout nodes;
* :func:`eliminate_dead_nodes` drops nodes whose outputs are never
  consumed;
* :func:`fold_shape_constants` folds statically known ``Shape`` nodes
  and pre-computes every node whose inputs are all initializers with
  data;
* :func:`fuse_conv_activations` absorbs activation/scalar epilogues
  into Conv/Gemm/MatMul nodes (``fused_ops`` token attribute);
* :func:`fuse_elementwise_chains` collapses unary/scalar-binary chains
  into single ``FusedElementwise`` virtual nodes;
* :func:`eliminate_common_subexpressions` merges structurally
  identical nodes.

:func:`optimize_graph` sequences them into the leveled pipeline the
execution plan compiler uses (level 0 = plan-time shape-constant
folding only, level 1 = bit-exact fusion, level 2 = adds BatchNorm
weight folding, level 3 = the same graph rewrites as level 2 — its
extra work is the plan's calibrated subnormal flush, see
:mod:`repro.ir.plan`); the fusion
patterns come from :mod:`repro.ir.fusion`, the same definitions the
backend :class:`FusionPlanner` plans with.

All passes mutate a *copy* unless ``in_place=True`` and return the
resulting graph.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..obs.trace import get_tracer
from .executor import _EXEC
from .fusion import CHAIN_BINARY, epilogue_token, match_silu
from .graph import Graph, GraphError
from .node import Node
from .shape_inference import _shape_slice_bounds, infer_shapes
from .tensor import DataType, Initializer, TensorInfo

__all__ = ["fold_batchnorm", "eliminate_identities", "eliminate_dead_nodes",
           "fold_shape_constants", "fuse_conv_activations",
           "fuse_elementwise_chains", "eliminate_common_subexpressions",
           "optimize_graph", "plan_pipeline", "OPTIMIZE_LEVELS"]


def _rename_consumers(graph: Graph, old: str, new: str) -> None:
    """Point every consumer of ``old`` (and graph outputs) at ``new``."""
    for node in graph.nodes:
        node.inputs = [new if t == old else t for t in node.inputs]
    graph.outputs = [t.with_name(new) if t.name == old else t
                     for t in graph.outputs]
    graph.invalidate()


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


def eliminate_identities(graph: Graph, in_place: bool = False) -> Graph:
    """Remove Identity and (inference-mode) Dropout nodes."""
    g = graph if in_place else graph.copy()
    for node in list(g.nodes):
        if node.op_type not in ("Identity", "Dropout"):
            continue
        src = node.inputs[0]
        dst = node.outputs[0]
        if dst in g.output_names:
            # declared output names are part of the graph's contract
            # (callers fetch results by them), so a node producing one
            # is never removed — removing it would either rename the
            # output or alias it onto an input.  (Skipping, rather than
            # remove-and-readd, keeps the node order stable so the pass
            # is idempotent.)
            continue
        g.remove_nodes([node])
        _rename_consumers(g, dst, src)
    infer_shapes(g)
    return g


def eliminate_dead_nodes(graph: Graph, in_place: bool = False) -> Graph:
    """Drop nodes that do not (transitively) contribute to any output."""
    g = graph if in_place else graph.copy()
    live: Set[str] = set(g.output_names)
    order = g.toposort()
    keep: List[Node] = []
    for node in reversed(order):
        if any(o in live for o in node.outputs):
            keep.append(node)
            live.update(node.present_inputs)
    keep_ids = {id(n) for n in keep}
    g.nodes = [n for n in g.nodes if id(n) in keep_ids]
    g.invalidate()
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


#: op types whose inputs get Q/DQ pairs under PTQ export
_QUANTIZABLE = {"Conv", "MatMul", "Gemm"}


def insert_qdq(graph: Graph, in_place: bool = False,
               scale: float = 0.05) -> Graph:
    """Insert QuantizeLinear/DequantizeLinear pairs around the weighted
    ops, the way a post-training-quantization export does.

    Every activation input of a Conv/MatMul/Gemm gets an explicit
    ``x -> Q -> DQ -> op`` chain with a shared symmetric scale.  The
    pattern is what int8-capable runtimes consume: they fold the Q/DQ
    pairs into int8 kernels (see :func:`strip_qdq` for the simulation's
    equivalent), while unquantized runtimes execute them as-is — the
    reference executor really rounds through int8, so accuracy effects
    are observable.
    """
    g = graph if in_place else graph.copy()
    if not g.value_info:
        infer_shapes(g)
    counter = 0
    new_nodes: List[Node] = []
    scale_name = "qdq::scale"
    zero_name = "qdq::zero_point"
    g.add_initializer(Initializer(
        TensorInfo(scale_name, (), DataType.FLOAT32),
        np.asarray(scale, dtype=np.float32)))
    g.add_initializer(Initializer(
        TensorInfo(zero_name, (), DataType.INT8),
        np.asarray(0, dtype=np.int8)))
    for node in g.nodes:
        if node.op_type in _QUANTIZABLE:
            data_input = node.inputs[0]
            if not g.is_initializer(data_input):
                counter += 1
                q_out = f"{data_input}::q{counter}"
                dq_out = f"{data_input}::dq{counter}"
                new_nodes.append(Node(
                    "QuantizeLinear", [data_input, scale_name, zero_name],
                    [q_out], name=f"QuantizeLinear_{counter}"))
                new_nodes.append(Node(
                    "DequantizeLinear", [q_out, scale_name, zero_name],
                    [dq_out], name=f"DequantizeLinear_{counter}"))
                node.inputs[0] = dq_out
        new_nodes.append(node)
    g.nodes = new_nodes
    g.invalidate()
    infer_shapes(g)
    return g


def strip_qdq(graph: Graph, in_place: bool = False) -> Graph:
    """Remove Q/DQ pairs, wiring consumers back to the float tensor —
    what an int8 runtime does when it replaces the pattern with int8
    kernels (the compute then runs at the int8 peak, which the
    backends model via ``precision=DataType.INT8``)."""
    g = graph if in_place else graph.copy()
    producers = g.producer_map()
    doomed: List[Node] = []
    for dq in list(g.nodes):
        if dq.op_type != "DequantizeLinear":
            continue
        q = producers.get(dq.inputs[0])
        if q is None or q.op_type != "QuantizeLinear":
            continue
        if dq.outputs[0] in g.output_names:
            # stripping would rename a declared graph output; keep the pair
            continue
        source = q.inputs[0]
        doomed.extend([q, dq])
        _rename_consumers(g, dq.outputs[0], source)
    g.remove_nodes(doomed)
    infer_shapes(g)
    return g


#: ops whose epilogue can absorb fused activation/scalar tokens
_EPILOGUE_HOSTS = ("Conv", "Gemm", "MatMul")


def fuse_conv_activations(graph: Graph, in_place: bool = False) -> Graph:
    """Absorb activation epilogues into Conv/Gemm/MatMul nodes.

    This is the numeric counterpart of the backend planner's conv and
    matmul fusion groups: a host node greedily absorbs its sole
    consumer while it matches a fusable pattern from
    :mod:`repro.ir.fusion` — simple activations (Relu, Clip with static
    bounds, LeakyRelu, ...), scalar-constant binary ops, and the
    two-node ``Mul(x, Sigmoid(x))`` SiLU pattern.  Absorbed ops encode
    as ``fused_ops`` tokens on the host; the executor and compiled
    plans apply them bit-identically as the epilogue of the host's
    kernel, so the rewrite never changes a single output bit.
    """
    g = graph if in_place else graph.copy()
    if not g.value_info:
        infer_shapes(g)
    outputs = set(g.output_names)
    # one consumer map for the whole scan: an absorbed epilogue only
    # moves its output tensor onto the host, so the consumers of every
    # tensor still live stay as they were.  The absorbed nodes go at
    # the end, as in fold_batchnorm; removing them earlier would drop
    # the map.
    taken_all: List[Node] = []
    for node in g.toposort():
        if node.op_type not in _EPILOGUE_HOSTS or len(node.outputs) != 1:
            continue
        tokens = list(node.attrs.get("fused_ops") or ())
        absorbed = False
        while True:
            out = node.outputs[0]
            if out in outputs:
                break
            consumers = g.consumers(out)
            silu = match_silu(g, consumers, out)
            if silu is not None:
                tok, taken = silu
            elif len(consumers) == 1:
                tok = epilogue_token(g, consumers[0], out)
                if tok is None:
                    break
                taken = [consumers[0]]
            else:
                break
            tokens.append(tok)
            node.outputs = [taken[-1].outputs[0]]
            taken_all.extend(taken)
            absorbed = True
        if absorbed:
            node.attrs["fused_ops"] = tokens
    if taken_all:
        g.remove_nodes(taken_all)
        infer_shapes(g)
    return g


def _chain_link(g: Graph, node: Node) -> Optional[Tuple[str, str]]:
    """``(token, source_tensor)`` when ``node`` can join an elementwise
    chain, else None.  ``FusedElementwise`` nodes never re-chain, which
    keeps :func:`fuse_elementwise_chains` idempotent."""
    if node.op_type == "FusedElementwise" or not node.inputs:
        return None
    if node.op_type in CHAIN_BINARY and len(node.inputs) == 2:
        flowing = [t for t in node.inputs if t and t not in g.initializers]
        if len(flowing) != 1:
            return None
        src = flowing[0]
    else:
        src = node.inputs[0]
    if not src:
        return None
    tok = epilogue_token(g, node, src)
    return (tok, src) if tok is not None else None


def fuse_elementwise_chains(graph: Graph, in_place: bool = False) -> Graph:
    """Collapse linear chains of unary / scalar-binary elementwise ops
    into single ``FusedElementwise`` nodes.

    The virtual op carries the chain as ``fused_ops`` tokens plus a
    ``fused_count``; the executor registers a kernel for it, so graphs
    rewritten by this pass stay executable everywhere.  Runs after
    :func:`fuse_conv_activations`, which has first claim on epilogues
    hanging off Conv/Gemm/MatMul outputs.
    """
    g = graph if in_place else graph.copy()
    if not g.value_info:
        infer_shapes(g)
    outputs = set(g.output_names)
    taken: Set[int] = set()
    replacements: List[Tuple[Node, Node, List[Node]]] = []
    for node in g.toposort():
        if id(node) in taken:
            continue
        link = _chain_link(g, node)
        if link is None:
            continue
        tok, src = link
        producer = g.producer(src)
        if producer is not None and src not in outputs \
                and len(g.consumers(src)) == 1 \
                and _chain_link(g, producer) is not None:
            # a chain starting further up will absorb this node
            continue
        chain = [node]
        tokens = [tok]
        cur = node
        while True:
            out = cur.outputs[0]
            if out in outputs:
                break
            cons = g.consumers(out)
            if len(cons) != 1 or id(cons[0]) in taken:
                break
            nxt_link = _chain_link(g, cons[0])
            if nxt_link is None or nxt_link[1] != out:
                break
            chain.append(cons[0])
            tokens.append(nxt_link[0])
            cur = cons[0]
        if len(chain) < 2:
            continue
        taken.update(id(m) for m in chain)
        fused = Node("FusedElementwise", [src], [chain[-1].outputs[0]],
                     name=chain[0].name or chain[0].op_type,
                     attrs={"fused_ops": tokens,
                            "fused_count": len(chain)})
        replacements.append((chain[0], fused, chain[1:]))
    for head, fused, rest in replacements:
        idx = next(i for i, n in enumerate(g.nodes) if n is head)
        g.nodes[idx] = fused
        g.remove_nodes(rest)
    if replacements:
        g.invalidate()
        infer_shapes(g)
    return g


def eliminate_common_subexpressions(graph: Graph,
                                    in_place: bool = False) -> Graph:
    """Merge nodes that compute the same value.

    Two nodes are equivalent when op type, (canonicalized) inputs and
    attributes match; the later node's consumers rewire onto the
    earlier one's outputs.  Nodes producing graph outputs are kept, and
    random ops never merge (each draw is distinct).
    """
    g = graph if in_place else graph.copy()
    outputs = set(g.output_names)

    def _attr_key(value):
        if isinstance(value, np.ndarray):
            return ("ndarray", value.shape, value.dtype.str, value.tobytes())
        if isinstance(value, list):
            return tuple(value)
        return value

    seen: Dict[tuple, Node] = {}
    replaced: Dict[str, str] = {}
    doomed: List[Node] = []
    for node in g.toposort():
        if node.op_type in _NO_FOLD:
            continue
        inputs = tuple(replaced.get(t, t) for t in node.inputs)
        key = (node.op_type, inputs, len(node.outputs),
               tuple(sorted((k, _attr_key(v))
                            for k, v in node.attrs.items())))
        canon = seen.get(key)
        if canon is None:
            seen[key] = node
            continue
        if any(o in outputs for o in node.outputs):
            continue
        for old, new in zip(node.outputs, canon.outputs):
            replaced[old] = new
        doomed.append(node)
    if not doomed:
        return g
    for node in g.nodes:
        if any(t in replaced for t in node.inputs):
            node.inputs = [replaced.get(t, t) for t in node.inputs]
    g.remove_nodes(doomed)
    infer_shapes(g)
    return g


# ---------------------------------------------------------------------------
# the leveled plan-compiler pipeline
# ---------------------------------------------------------------------------
_PASS_REGISTRY = {
    "eliminate_identities": eliminate_identities,
    "fold_shape_constants": fold_shape_constants,
    "fold_batchnorm": fold_batchnorm,
    "fuse_conv_activations": fuse_conv_activations,
    "fuse_elementwise_chains": fuse_elementwise_chains,
    "eliminate_common_subexpressions": eliminate_common_subexpressions,
    "eliminate_dead_nodes": eliminate_dead_nodes,
}

_O2_PASSES = ("eliminate_identities", "fold_shape_constants",
              "fold_batchnorm", "fuse_conv_activations",
              "fuse_elementwise_chains", "eliminate_common_subexpressions",
              "eliminate_dead_nodes")

#: optimization levels for :func:`optimize_graph` / ``compile_plan``:
#: 0 keeps the historical plan behavior (shape-constant folding only);
#: 1 adds every *bit-exact* rewrite; 2 adds BatchNorm weight folding
#: (values match within float rounding, not bit-for-bit) and unlocks
#: the plan's numerics-relaxed fast kernels (depthwise MAC loop).
OPTIMIZE_LEVELS = {
    0: ("fold_shape_constants",),
    1: ("eliminate_identities", "fold_shape_constants",
        "fuse_conv_activations", "fuse_elementwise_chains",
        "eliminate_common_subexpressions", "eliminate_dead_nodes"),
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
