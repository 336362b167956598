"""Analyze Representation (paper §3.2.2).

PRoof's internal representation of the model: every graph node becomes
an :class:`AnalyzedOp` that pairs the node with its operator define,
plus the tensor table from shape inference.  The representation is
backend-independent; the Optimized Analyze Representation (§3.2.3)
derives from it.
"""
from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..ir.fingerprint import node_fingerprint
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.shape_inference import infer_shapes
from ..ir.tensor import DataType, TensorInfo
from .opdefs import OpClass, OpCost, OpView, cost_of, operator_def

__all__ = ["AnalyzedOp", "AnalyzeRepresentation", "ModelStats", "OpContext"]


class OpContext:
    """What an analysis unit reads of its Analyze Representation.

    Units hold this small per-AR object instead of the representation
    itself: it references the graph, the tensor lookup, the precision
    and the graph outputs, but no unit, so a representation and its
    units form no reference cycle and a dropped profile is freed by
    reference counting alone.  Units that outlive their representation
    (a backend's truth units, re-timed by the profiler's assemble path)
    still answer every query through it.

    The layer store is reached through a weak reference: the store's
    structure tier keeps finished entries, and so the ARs of those
    entries, alive; a strong link back would close that loop.  When no
    store is set, or it is gone, records are computed directly, with
    bit-identical values.

    ``fused`` memoizes, per (ordered member names, fold set), the
    boundary io and group fingerprint of a fused unit as plain data, so
    the backend's truth units and the layer mapping's units over the
    same members compute them once.
    """

    __slots__ = ("graph", "tensor", "precision", "graph_outputs", "_store",
                 "fused")

    def __init__(self, graph: Graph, precision: DataType) -> None:
        self.graph = graph
        self.tensor = graph.tensor
        self.precision = precision
        self.graph_outputs = frozenset(graph.output_names)
        self._store: Optional[weakref.ref] = None
        #: (member names, folded names) -> [inputs, outputs, fingerprint]
        self.fused: Dict[Tuple[Tuple[str, ...], FrozenSet[str]], list] = {}

    @property
    def layer_store(self):
        return self._store() if self._store is not None else None

    @layer_store.setter
    def layer_store(self, store) -> None:
        self._store = weakref.ref(store) if store is not None else None


class AnalyzedOp:
    """One model-design operator with cost-prediction behaviour.

    When the owning representation carries a layer store
    (``rep.layer_store``), cost and class predictions resolve through
    the store's cross-model records, keyed by this op's name-free
    :meth:`layer_fingerprint` — recomputation happens only for layer
    shapes never analysed before, in any graph.  The class and the cost
    at the representation's precision are also kept on the op itself,
    so the store is consulted once per op per kind; other precisions
    still go through the store.
    """

    __slots__ = ("node", "name", "_ctx", "_layer_fp", "_class", "_cost")

    def __init__(self, node: Node, ctx: OpContext, name: str) -> None:
        self.node = node
        #: the node's name, or a unique ``<op_type>#<topo index>``
        #: fallback for an unnamed node (assigned by the representation)
        self.name = name
        self._ctx = ctx
        self._layer_fp: Optional[str] = None
        self._class: Optional[OpClass] = None
        self._cost: Optional[OpCost] = None

    @property
    def op_type(self) -> str:
        return self.node.op_type

    @property
    def inputs(self) -> List[str]:
        return self.node.present_inputs

    @property
    def outputs(self) -> List[str]:
        return list(self.node.outputs)

    @property
    def member_nodes(self) -> List[Node]:
        """Uniform accessor shared with ``_FusedOp`` (single member here)."""
        return [self.node]

    @property
    def member_names(self) -> List[str]:
        return [self.name]

    def layer_fingerprint(self) -> str:
        """Name-free structural fingerprint (memoized; see
        :func:`repro.ir.fingerprint.node_fingerprint`)."""
        if self._layer_fp is None:
            ctx = self._ctx
            self._layer_fp = node_fingerprint(
                self.node, ctx.tensor, ctx.graph.initializers)
        return self._layer_fp

    def compute_class(self) -> OpClass:
        """Raw (uncached) operator classification."""
        return operator_def(self.node.op_type).classify(
            OpView(self.node, self._ctx.tensor))

    def compute_cost(self, precision: DataType) -> OpCost:
        """Raw (uncached) cost prediction at ``precision``."""
        return cost_of(self.node, self._ctx.tensor, precision)

    def op_class(self) -> OpClass:
        if self._class is None:
            self._class = stored_class(self)
        return self._class

    def cost(self, precision: Optional[DataType] = None) -> OpCost:
        return stored_cost(self, precision)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnalyzedOp({self.name!r}, {self.op_type})"


def stored_class(unit) -> OpClass:
    """``unit.compute_class()`` through the layer store of the unit's
    context, when it has one (shared by :class:`AnalyzedOp` and
    ``FusedOp``)."""
    store = unit._ctx.layer_store
    if store is None:
        return unit.compute_class()
    return store.record(("class", unit.layer_fingerprint()),
                        unit.compute_class)


def stored_cost(unit, precision: Optional[DataType]) -> OpCost:
    """``unit.compute_cost(precision)`` through the layer store of the
    unit's context; the cost at the context's own precision is kept in
    ``unit._cost``."""
    ctx = unit._ctx
    own = precision is None or precision == ctx.precision
    if own:
        if unit._cost is not None:
            return unit._cost
        precision = ctx.precision
    store = ctx.layer_store
    if store is None:
        cost = unit.compute_cost(precision)
    else:
        cost = store.record(
            ("cost", unit.layer_fingerprint(),
             getattr(precision, "value", precision)),
            lambda: unit.compute_cost(precision))
    if own:
        unit._cost = cost
    return cost


class ModelStats:
    """Headline model statistics — the columns of Table 3."""

    def __init__(self, name: str, num_nodes: int, params: int,
                 flop: float, memory_bytes: float) -> None:
        self.name = name
        self.num_nodes = num_nodes
        self.params = params
        self.flop = flop
        self.memory_bytes = memory_bytes

    @property
    def gflop(self) -> float:
        return self.flop / 1e9

    @property
    def params_m(self) -> float:
        return self.params / 1e6

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ModelStats({self.name!r}, nodes={self.num_nodes}, "
                f"params={self.params_m:.1f}M, gflop={self.gflop:.3f})")


def _fallback_name(node: Node, index: int, taken: set) -> str:
    """Deterministic name for an unnamed node: ``<op_type>#<topo
    index>``, suffixed until it collides with no other op name."""
    name = f"{node.op_type}#{index}"
    while name in taken:
        name += "'"
    taken.add(name)
    return name


class AnalyzeRepresentation:
    """The model as a set of operator objects plus tensor information."""

    def __init__(self, graph: Graph, precision: DataType = DataType.FLOAT32) -> None:
        if not graph.value_info:
            infer_shapes(graph)
        self.graph = graph
        self.precision = precision
        #: what the units read of this representation (see
        #: :class:`OpContext`); they hold it, never the representation
        self.context = ctx = OpContext(graph, precision)
        #: graph output names, for the "does this tensor escape" checks
        #: of fusion planning and fused-op io
        self.graph_outputs = ctx.graph_outputs
        nodes = graph.toposort()
        taken = {n.name for n in nodes if n.name}
        self.ops: List[AnalyzedOp] = []
        self._by_output: Dict[str, AnalyzedOp] = {}
        self._by_name: Dict[str, AnalyzedOp] = {}
        for index, node in enumerate(nodes):
            op = AnalyzedOp(node, ctx, node.name
                            or _fallback_name(node, index, taken))
            self.ops.append(op)
            for out in node.outputs:
                self._by_output[out] = op
            self._by_name.setdefault(op.name, op)
        # an unnamed op is also found by its op type (first in topo
        # order wins), unless a real or fallback name already took it
        for op in self.ops:
            if not op.node.name:
                self._by_name.setdefault(op.op_type, op)

    @property
    def layer_store(self):
        """Optional :class:`repro.analysis.layerstore.LayerStore` — set
        by the analysis cache to share per-op cost/class records (and,
        through the backend compile that is handed this AR, latency
        records) across models and sweep configs.  Held weakly (see
        :class:`OpContext`)."""
        return self.context.layer_store

    @layer_store.setter
    def layer_store(self, store) -> None:
        self.context.layer_store = store

    # -- tensor info -------------------------------------------------------
    def tensor(self, name: str) -> TensorInfo:
        return self.graph.tensor(name)

    def has_tensor(self, name: str) -> bool:
        return self.graph.has_tensor(name)

    # -- lookup ------------------------------------------------------------
    def op_by_output(self, tensor: str) -> Optional[AnalyzedOp]:
        return self._by_output.get(tensor)

    def op_by_name(self, name: str) -> Optional[AnalyzedOp]:
        return self._by_name.get(name)

    # -- aggregate costs ----------------------------------------------------
    def total_cost(self, precision: Optional[DataType] = None) -> OpCost:
        """Model-level FLOP / memory prediction, *without* fusion (the
        fused totals come from the Optimized Analyze Representation)."""
        total = OpCost(0.0, 0.0, 0.0)
        for op in self.ops:
            total = total + op.cost(precision)
        return total

    def stats(self) -> ModelStats:
        cost = self.total_cost()
        return ModelStats(
            name=self.graph.name,
            num_nodes=self.graph.num_nodes,
            params=self.graph.num_parameters(),
            flop=cost.flop,
            memory_bytes=cost.memory_bytes,
        )

    def __iter__(self) -> Iterator[AnalyzedOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)
