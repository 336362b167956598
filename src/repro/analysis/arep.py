"""Analyze Representation (paper §3.2.2).

PRoof's internal representation of the model: every graph node becomes
an :class:`AnalyzedOp` that pairs the node with its operator define,
plus the tensor table from shape inference.  The representation is
backend-independent; the Optimized Analyze Representation (§3.2.3)
derives from it.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..ir.fingerprint import node_fingerprint
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.shape_inference import infer_shapes
from ..ir.tensor import DataType, TensorInfo
from .opdefs import OpClass, OpCost, OpView, cost_of, operator_def

__all__ = ["AnalyzedOp", "AnalyzeRepresentation", "ModelStats"]


class AnalyzedOp:
    """One model-design operator with cost-prediction behaviour.

    When the owning representation carries a layer store
    (``rep.layer_store``), cost and class predictions resolve through
    the store's cross-model records, keyed by this op's name-free
    :meth:`layer_fingerprint` — recomputation happens only for layer
    shapes never analysed before, in any graph.
    """

    def __init__(self, node: Node, rep: "AnalyzeRepresentation") -> None:
        self.node = node
        self._rep = rep
        self._layer_fp: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name or self.node.op_type

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

    def layer_fingerprint(self) -> str:
        """Name-free structural fingerprint (memoized; see
        :func:`repro.ir.fingerprint.node_fingerprint`)."""
        if self._layer_fp is None:
            self._layer_fp = node_fingerprint(
                self.node, self._rep.tensor,
                self._rep.graph.initializers)
        return self._layer_fp

    def compute_class(self) -> OpClass:
        """Raw (uncached) operator classification."""
        return operator_def(self.node.op_type).classify(
            OpView(self.node, self._rep.tensor))

    def compute_cost(self, precision: DataType) -> OpCost:
        """Raw (uncached) cost prediction at ``precision``."""
        return cost_of(self.node, self._rep.tensor, precision)

    def op_class(self) -> OpClass:
        store = self._rep.layer_store
        if store is None:
            return self.compute_class()
        return store.record(("class", self.layer_fingerprint()),
                            self.compute_class)

    def cost(self, precision: Optional[DataType] = None) -> OpCost:
        precision = precision or self._rep.precision
        store = self._rep.layer_store
        if store is None:
            return self.compute_cost(precision)
        return store.record(
            ("cost", self.layer_fingerprint(),
             getattr(precision, "value", precision)),
            lambda: self.compute_cost(precision))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnalyzedOp({self.name!r}, {self.op_type})"


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


class AnalyzeRepresentation:
    """The model as a set of operator objects plus tensor information."""

    def __init__(self, graph: Graph, precision: DataType = DataType.FLOAT32) -> None:
        if not graph.value_info:
            infer_shapes(graph)
        self.graph = graph
        self.precision = precision
        #: optional :class:`repro.analysis.layerstore.LayerStore` — set
        #: by the analysis cache (or a backend compile) to share per-op
        #: cost/class records across models and sweep configs
        self.layer_store = None
        self.ops: List[AnalyzedOp] = [AnalyzedOp(n, self) for n in graph.toposort()]
        self._by_output: Dict[str, AnalyzedOp] = {}
        self._by_name: Dict[str, AnalyzedOp] = {}
        for op in self.ops:
            for out in op.outputs:
                self._by_output[out] = op
            self._by_name.setdefault(op.name, op)

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
