"""Graph-optimization (fusion) planning for the simulated runtimes.

Real inference runtimes transform the compute graph before execution:
inference-time BatchNorm folds into the preceding convolution, residual
adds and activations fuse into conv/GEMM epilogues, and chains of
pointwise operators collapse into single kernels.  The
:class:`FusionPlanner` reproduces those passes over the Analyze
Representation and emits an ordered list of :class:`FusionGroup` —
the ground-truth backend layers each simulated runtime builds on.

The rules mirror the optimizations the paper calls out: layer fusion is
what makes backend layers differ from model layers (§1 challenge 1),
and transposes / data copies stay *unfused* — which is why the Shuffle
operation dominates ShuffleNetV2's latency in §4.5.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..analysis.arep import AnalyzedOp, AnalyzeRepresentation
from ..analysis.opdefs import OpClass

__all__ = ["FusionConfig", "FusionGroup", "FusionPlanner", "GroupKind",
           "MAX_GROUP_SIZE"]


class GroupKind:
    CONV = "conv"
    MATMUL = "matmul"
    POINTWISE = "pointwise"
    NOOP = "noop"
    SINGLE = "single"


#: the most ops one pointwise (PWN) region may hold
MAX_GROUP_SIZE = 24


@dataclass(frozen=True)
class FusionConfig:
    """How hard a runtime fuses.

    Every runtime folds BatchNorm into convolutions, fuses activations
    into conv/GEMM epilogues and bias adds into MatMuls, and grows
    pointwise regions of at most :data:`MAX_GROUP_SIZE` ops; the
    runtimes differ in the two passes below.
    """

    fuse_residual_add: bool = True       # conv + Add (+ activation) epilogue
    pointwise_includes_normalization: bool = False  # Myelin fuses LayerNorm in

    @classmethod
    def aggressive(cls) -> "FusionConfig":
        """TensorRT-style: LayerNorm joins pointwise regions."""
        return cls(pointwise_includes_normalization=True)

    @classmethod
    def moderate(cls) -> "FusionConfig":
        """ONNX Runtime / OpenVINO style: no residual-add epilogue fusion."""
        return cls(fuse_residual_add=False)


@dataclass
class FusionGroup:
    """A set of model ops one backend layer will execute."""

    members: List[AnalyzedOp]
    kind: str = GroupKind.SINGLE
    folded: List[str] = field(default_factory=list)

    @property
    def names(self) -> List[str]:
        return [m.name for m in self.members]

    @property
    def size(self) -> int:
        return len(self.members)


#: activations a conv/GEMM epilogue can absorb, as single nodes
_SIMPLE_ACTIVATIONS = {"Relu", "LeakyRelu", "Clip", "HardSwish",
                       "HardSigmoid", "Sigmoid", "Tanh", "Elu"}

_POINTWISE_CLASSES = {OpClass.ELEMENTWISE, OpClass.ZERO_COST}


class FusionPlanner:
    """Greedy fusion over a model's Analyze Representation."""

    def __init__(self, arep: AnalyzeRepresentation,
                 config: Optional[FusionConfig] = None) -> None:
        self.arep = arep
        self.config = config or FusionConfig()
        self.graph = arep.graph
        self._assigned: Set[int] = set()          # id(AnalyzedOp)
        self._order: Dict[int, int] = {
            id(op): i for i, op in enumerate(arep.ops)}

    # ------------------------------------------------------------------
    def plan(self) -> List[FusionGroup]:
        """Compute the fusion groups in topological order."""
        groups = self._plan_conv_groups()
        groups.extend(self._plan_matmul_groups())
        groups.extend(self._plan_pointwise_regions())
        for op in self.arep.ops:
            if id(op) not in self._assigned:
                kind = GroupKind.NOOP if op.op_class() is OpClass.ZERO_COST \
                    else GroupKind.SINGLE
                groups.append(FusionGroup([op], kind=kind))
                self._assigned.add(id(op))
        groups.sort(key=lambda g: self._order[id(g.members[0])])
        return groups

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _sole_consumer(self, tensor: str) -> Optional[AnalyzedOp]:
        """The unique consuming op of a tensor (None for 0 or >1, or
        when the tensor is also a graph output)."""
        if tensor in self.arep.graph_outputs:
            return None
        consumers = self.graph.consumers(tensor)
        if len(consumers) != 1:
            return None
        op = self.arep.op_by_output(consumers[0].outputs[0])
        return op

    def _free(self, op: Optional[AnalyzedOp]) -> bool:
        return op is not None and id(op) not in self._assigned

    def _take(self, group: FusionGroup, op: AnalyzedOp) -> None:
        group.members.append(op)
        self._assigned.add(id(op))

    # ------------------------------------------------------------------
    # conv epilogue fusion
    # ------------------------------------------------------------------
    def _plan_conv_groups(self) -> List[FusionGroup]:
        groups: List[FusionGroup] = []
        for op in self.arep.ops:
            if op.op_type != "Conv" or id(op) in self._assigned:
                continue
            group = FusionGroup([op], kind=GroupKind.CONV)
            self._assigned.add(id(op))
            cursor = op
            # 1) BatchNorm folds into the conv weights
            nxt = self._sole_consumer(cursor.outputs[0])
            if self._free(nxt) and nxt.op_type == "BatchNormalization":
                self._take(group, nxt)
                group.folded.append(nxt.name)
                cursor = nxt
            # 2) activation epilogue
            cursor = self._absorb_activation(group, cursor)
            # 3) residual Add (+ trailing activation)
            if self.config.fuse_residual_add:
                nxt = self._sole_consumer(cursor.outputs[0])
                if self._free(nxt) and nxt.op_type == "Add" \
                        and cursor.outputs[0] in nxt.inputs:
                    self._take(group, nxt)
                    self._absorb_activation(group, nxt)
            groups.append(group)
        return groups

    def _absorb_activation(self, group: FusionGroup,
                           cursor: AnalyzedOp) -> AnalyzedOp:
        """Fuse a following activation; handles the 2-node SiLU pattern."""
        out = cursor.outputs[0]
        consumers = self.graph.consumers(out)
        # SiLU = Mul(x, Sigmoid(x)): x has exactly the two consumers
        if len(consumers) == 2 and out not in self.arep.graph_outputs:
            ops = [self.arep.op_by_output(c.outputs[0]) for c in consumers]
            types = sorted(o.op_type for o in ops if o)
            if types == ["Mul", "Sigmoid"] and all(self._free(o) for o in ops):
                sig = next(o for o in ops if o.op_type == "Sigmoid")
                mul = next(o for o in ops if o.op_type == "Mul")
                if sig.outputs[0] in mul.inputs and out in mul.inputs:
                    self._take(group, sig)
                    self._take(group, mul)
                    return mul
        nxt = self._sole_consumer(out)
        if self._free(nxt) and nxt.op_type in _SIMPLE_ACTIVATIONS:
            self._take(group, nxt)
            return nxt
        return cursor

    # ------------------------------------------------------------------
    # GEMM bias fusion
    # ------------------------------------------------------------------
    def _plan_matmul_groups(self) -> List[FusionGroup]:
        groups: List[FusionGroup] = []
        for op in self.arep.ops:
            if op.op_type not in ("MatMul", "Gemm") or id(op) in self._assigned:
                continue
            group = FusionGroup([op], kind=GroupKind.MATMUL)
            self._assigned.add(id(op))
            cursor = op
            if op.op_type == "MatMul":
                nxt = self._sole_consumer(cursor.outputs[0])
                if self._free(nxt) and nxt.op_type == "Add":
                    other = [t for t in nxt.inputs if t != cursor.outputs[0]]
                    if other and all(self.graph.is_initializer(t) for t in other):
                        self._take(group, nxt)
                        cursor = nxt
            self._absorb_activation(group, cursor)
            groups.append(group)
        return groups

    # ------------------------------------------------------------------
    # pointwise region growing (PWN)
    # ------------------------------------------------------------------
    def _is_pointwise(self, op: AnalyzedOp) -> bool:
        klass = op.op_class()
        if klass in _POINTWISE_CLASSES:
            return True
        if self.config.pointwise_includes_normalization \
                and klass is OpClass.NORMALIZATION \
                and op.op_type != "BatchNormalization":
            return True
        return False

    def _plan_pointwise_regions(self) -> List[FusionGroup]:
        """Grow regions forward from each unassigned pointwise op.

        A consumer joins a region only when its every input is produced
        in-region, is a weight/graph input, or comes from a node that
        topologically precedes the seed — the last condition guarantees
        the fused layer cannot form a scheduling cycle with operators
        outside the region (e.g. a residual Add whose other operand
        flows through a not-yet-executed GEMM must stay out).
        """
        groups: List[FusionGroup] = []
        for seed in self.arep.ops:
            if id(seed) in self._assigned or not self._is_pointwise(seed):
                continue
            seed_idx = self._order[id(seed)]
            region: List[AnalyzedOp] = [seed]
            in_region_outputs: Set[str] = set(seed.outputs)
            member_ids = {id(seed)}
            frontier = [seed]
            while frontier and len(region) < MAX_GROUP_SIZE:
                cur = frontier.pop(0)
                for cand in self._consumers_of(cur):
                    if id(cand) in member_ids or id(cand) in self._assigned:
                        continue
                    if not self._is_pointwise(cand):
                        continue
                    if not self._inputs_safe(cand, in_region_outputs, seed_idx):
                        continue
                    member_ids.add(id(cand))
                    region.append(cand)
                    in_region_outputs.update(cand.outputs)
                    frontier.append(cand)
                    if len(region) >= MAX_GROUP_SIZE:
                        break
            region.sort(key=lambda o: self._order[id(o)])
            for op in region:
                self._assigned.add(id(op))
            non_noop = [o for o in region if o.op_class() is not OpClass.ZERO_COST]
            kind = GroupKind.POINTWISE if non_noop else GroupKind.NOOP
            if len(region) == 1 and kind != GroupKind.NOOP:
                kind = GroupKind.SINGLE
            groups.append(FusionGroup(region, kind=kind))
        return groups

    def _consumers_of(self, op: AnalyzedOp) -> List[AnalyzedOp]:
        out: List[AnalyzedOp] = []
        for t in op.outputs:
            for node in self.graph.consumers(t):
                consumer = self.arep.op_by_output(node.outputs[0])
                if consumer is not None:
                    out.append(consumer)
        return out

    def _inputs_safe(self, op: AnalyzedOp, in_region: Set[str],
                     seed_idx: int) -> bool:
        for t in op.inputs:
            if t in in_region or self.graph.is_initializer(t) \
                    or self.graph.is_graph_input(t):
                continue
            producer = self.arep.op_by_output(t)
            if producer is None or self._order[id(producer)] >= seed_idx:
                return False
        return True
