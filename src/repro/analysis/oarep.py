"""Optimized Analyze Representation and the ``_FusedOp`` virtual operator.

Implements the paper's §3.2.3 and the mapping interfaces of §3.3 /
Figure 2: ``get_subgraph_ops_by_io``, ``set_tensor_alias`` and
``set_fused_op``.  Backend layer-mapping code drives these three calls
to transform the representation — initially identical to the Analyze
Representation — into a structure equivalent to the runtime's fused
backend layers, while keeping the composition of original model layers
inside each fused unit.
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..ir.fingerprint import group_fingerprint
from ..ir.node import Node
from ..ir.tensor import DataType, TensorInfo
from .arep import (AnalyzedOp, AnalyzeRepresentation, OpContext,
                   stored_class, stored_cost)
from .opdefs import OpClass, OpCost, OpView, operator_def

__all__ = ["FusedOp", "OptimizedAnalyzeRepresentation", "MappingError"]


class MappingError(RuntimeError):
    """Raised when backend-layer information cannot be reconciled with
    the model graph."""


def fused_io(ctx: OpContext, nodes: Sequence[Node]
             ) -> Tuple[List[str], List[str]]:
    """Boundary tensors of a fused group: inputs no member produces, in
    first-appearance order, and member outputs read outside the group
    or returned by the graph."""
    produced = {t for n in nodes for t in n.outputs}
    # dicts keep first-appearance order: member order, then slot order
    ext_inputs = dict.fromkeys(
        t for n in nodes for t in n.inputs if t and t not in produced)
    graph_outputs = ctx.graph_outputs
    graph_consumers = ctx.graph.consumer_map()
    member_ids = {id(n) for n in nodes}
    ext_outputs = dict.fromkeys(
        t for n in nodes for t in n.outputs
        if t in graph_outputs or any(
            id(c) not in member_ids for c in graph_consumers.get(t, ())))
    return list(ext_inputs), list(ext_outputs)


class FusedOp:
    """The ``_FusedOp`` operator define: a set of original operators
    fused into one backend layer.

    FLOP is the sum over members (minus members whose computation the
    backend folded into weights, e.g. inference-time BatchNorm); memory
    follows the paper's fused rule — intermediate tensors of the fused
    subgraph stay on-chip, so only the subgraph's boundary tensors (and
    the members' weights) touch DRAM.
    """

    __slots__ = ("members", "_ctx", "name", "folded", "_record", "_class",
                 "_cost")

    def __init__(self, members: Sequence[AnalyzedOp], rep: "OptimizedAnalyzeRepresentation",
                 name: str = "", folded: Iterable[str] = ()) -> None:
        if not members:
            raise MappingError("cannot fuse an empty op set")
        self.members: List[AnalyzedOp] = list(members)
        # the AR's context, not ``rep``: the OAR holds its units, so a
        # link back would form a cycle (see ``OpContext``)
        self._ctx: OpContext = rep.arep.context
        self.name = name or "+".join(m.name for m in self.members[:4])
        #: names of member nodes whose FLOP the backend folded away
        self.folded: Set[str] = set(folded)
        # io and fingerprint depend only on the ordered members and the
        # fold set, so every unit over them shares one plain-data record:
        # [external inputs, external outputs, fingerprint or None]
        key = (tuple(m.name for m in self.members), frozenset(self.folded))
        record = self._ctx.fused.get(key)
        if record is None:
            record = self._ctx.fused.setdefault(
                key, [*fused_io(self._ctx, self.member_nodes), None])
        self._record: list = record
        #: class, and cost at the AR's precision (see ``AnalyzedOp``)
        self._class: Optional[OpClass] = None
        self._cost: Optional[OpCost] = None

    # -- AnalyzedOp-compatible interface ------------------------------------
    @property
    def op_type(self) -> str:
        return "_FusedOp"

    @property
    def inputs(self) -> List[str]:
        return list(self._record[0])

    @property
    def outputs(self) -> List[str]:
        return list(self._record[1])

    @property
    def member_nodes(self) -> List[Node]:
        return [m.node for m in self.members]

    @property
    def member_names(self) -> List[str]:
        return [m.name for m in self.members]

    def layer_fingerprint(self) -> str:
        """Name-free group fingerprint (memoized), composed from the
        members' memoized node fingerprints in member order, the
        internal wiring, the boundary outputs and the fold markers —
        everything :meth:`cost`/:meth:`op_class` read, so equal
        fingerprints imply bit-identical records (see
        :func:`repro.ir.fingerprint.group_fingerprint`)."""
        record = self._record
        if record[2] is None:
            record[2] = group_fingerprint(
                self.member_nodes,
                external_outputs=record[1],
                folded_indices=[i for i, m in enumerate(self.members)
                                if m.name in self.folded],
                node_fps=[m.layer_fingerprint() for m in self.members])
        return record[2]

    def op_class(self) -> OpClass:
        if self._class is None:
            self._class = stored_class(self)
        return self._class

    def compute_class(self) -> OpClass:
        """Dominant class: the member with the highest FLOP wins; pure
        data-movement fusions stay data movement."""
        best: Optional[Tuple[float, OpClass]] = None
        for m in self.members:
            if m.name in self.folded:
                continue
            c = m.cost()
            key = (c.flop, m.op_class() is not OpClass.ZERO_COST)
            if best is None or key > best[0]:
                best = (key, m.op_class())
        if best is None:
            return OpClass.DATA_MOVEMENT
        flop_key, klass = best
        if flop_key[0] <= 0:
            # no compute anywhere: classify by movement
            for m in self.members:
                if m.op_class() is OpClass.DATA_MOVEMENT:
                    return OpClass.DATA_MOVEMENT
        return klass

    def cost(self, precision: Optional[DataType] = None) -> OpCost:
        return stored_cost(self, precision)

    def compute_cost(self, precision: DataType) -> OpCost:
        """Raw (uncached) fused-cost computation at ``precision``."""
        internal = self._internal_tensors()
        tensor = self._ctx.tensor
        graph = self._ctx.graph
        flop = 0.0
        reads: Dict[str, float] = {}
        writes: Dict[str, float] = {}
        for m in self.members:
            view = OpView(m.node, tensor, precision)
            opdef = operator_def(m.op_type)
            if m.name not in self.folded:
                flop += opdef.flop(view)
            for t, b in opdef.read_bytes(view).items():
                if t in internal:
                    continue
                if m.name in self.folded and graph.is_initializer(t):
                    continue  # folded weights merged into another member's
                reads[t] = max(reads.get(t, 0.0), b)
            for t, b in opdef.write_bytes(view).items():
                if t in internal:
                    continue
                writes[t] = max(writes.get(t, 0.0), b)
        return OpCost(flop, sum(reads.values()), sum(writes.values()))

    def _internal_tensors(self) -> Set[str]:
        ext_out = self._record[1]
        produced: Set[str] = set()
        for m in self.members:
            produced.update(m.outputs)
        return produced - set(ext_out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FusedOp({self.name!r}, {len(self.members)} members)"


class OptimizedAnalyzeRepresentation:
    """The model after backend optimization, as units of (fused) ops.

    Starts identical to the Analyze Representation; layer mapping calls
    :meth:`set_tensor_alias` / :meth:`get_subgraph_ops_by_io` /
    :meth:`set_fused_op` until the unit list matches the backend layer
    list one-to-one.
    """

    def __init__(self, arep: AnalyzeRepresentation) -> None:
        self.arep = arep
        #: backend tensor name -> model tensor name
        self._aliases: Dict[str, str] = {}
        self._unit_of_node: Dict[int, object] = {
            id(op.node): op for op in arep.ops}
        self._units: Optional[List[object]] = None

    @property
    def units(self) -> List[object]:
        """Current units (AnalyzedOp | FusedOp) in topological order; a
        fused unit sits at its first member's position."""
        if self._units is None:
            self._units = list(dict.fromkeys(
                self._unit_of_node[id(op.node)] for op in self.arep.ops))
        return self._units

    # ------------------------------------------------------------------
    # mapping interfaces (paper Figure 2)
    # ------------------------------------------------------------------
    def set_tensor_alias(self, alias: str, original: str) -> None:
        """Declare that the backend tensor ``alias`` is the model tensor
        ``original`` (e.g. a datatype/format-converted copy ``t2_r``)."""
        original = self.resolve(original)
        if not self.arep.has_tensor(original):
            raise MappingError(f"alias target {original!r} is not a model tensor")
        self._aliases[alias] = original

    def resolve(self, tensor: str) -> str:
        """Follow alias links until reaching a model tensor name."""
        seen = set()
        while tensor in self._aliases:
            if tensor in seen:
                raise MappingError(f"alias cycle at {tensor!r}")
            seen.add(tensor)
            tensor = self._aliases[tensor]
        return tensor

    def get_subgraph_ops_by_io(
        self, inputs: Iterable[str], outputs: Iterable[str]
    ) -> List[AnalyzedOp]:
        """Find the model-op subgraph spanned between the given boundary
        tensors (backend names allowed; aliases are resolved)."""
        in_t = {self.resolve(t) for t in inputs}
        out_t = {self.resolve(t) for t in outputs}
        for t in in_t | out_t:
            if not self.arep.has_tensor(t):
                raise MappingError(f"unknown boundary tensor {t!r}")
        nodes = self.arep.graph.ancestors_between(in_t, out_t)
        ops = []
        for node in nodes:
            unit = self._unit_of_node.get(id(node))
            if isinstance(unit, FusedOp):
                raise MappingError(
                    f"node {node.name!r} already belongs to fused unit "
                    f"{unit.name!r}")
            if unit is not None:
                ops.append(unit)
        return ops

    def set_fused_op(self, ops: Sequence[AnalyzedOp], name: str = "",
                     folded: Iterable[str] = ()) -> FusedOp:
        """Replace the given ops with a single ``_FusedOp`` unit."""
        ops = list(ops)
        if not ops:
            raise MappingError("set_fused_op: empty op list")
        seen: Set[int] = set()
        for op in ops:
            if not isinstance(op, AnalyzedOp):
                raise MappingError("set_fused_op expects unfused AnalyzedOps")
            if self._unit_of_node.get(id(op.node)) is not op:
                raise MappingError(f"op {op.name!r} is not an active unit")
            if id(op) in seen:
                raise MappingError(f"op {op.name!r} listed twice")
            seen.add(id(op))
        fused = FusedOp(ops, self, name=name, folded=folded)
        for op in ops:
            self._unit_of_node[id(op.node)] = fused
        self._units = None
        return fused

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def unit_of_node(self, node: Node) -> Optional[object]:
        return self._unit_of_node.get(id(node))

    def unit_by_output(self, tensor: str) -> Optional[object]:
        tensor = self.resolve(tensor)
        op = self.arep.op_by_output(tensor)
        if op is None:
            return None
        return self._unit_of_node.get(id(op.node))

    def total_cost(self, precision: Optional[DataType] = None) -> OpCost:
        """Model-level cost *with* fusion applied — this is what the
        paper's Table 4 'Analytical model' columns report."""
        total = OpCost(0.0, 0.0, 0.0)
        for u in self.units:
            total = total + u.cost(precision)  # type: ignore[attr-defined]
        return total

    def __iter__(self) -> Iterator[object]:
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)
