"""Shared machinery for the simulated inference runtimes.

Concrete backends (:mod:`trtsim`, :mod:`ortsim`, :mod:`ovsim`)
customize fusion aggressiveness, layer naming, which mapping hints they
expose, and where they insert reformat/reorder layers — the axes along
which the real TensorRT / ONNX Runtime / OpenVINO differ and which make
PRoof's layer mapping non-trivial.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.arep import AnalyzedOp, AnalyzeRepresentation
from ..analysis.oarep import OptimizedAnalyzeRepresentation
from ..hardware.specs import HardwareSpec
from ..ir.graph import Graph
from ..ir.shape_inference import infer_shapes
from ..ir.tensor import DataType
from .base import (Backend, BackendError, BackendLayer, BackendModel,
                   LayerKind, UnsupportedModelError)
from .optimizer import FusionConfig, FusionGroup, FusionPlanner, GroupKind

__all__ = ["SimulatedRuntime"]


class SimulatedRuntime(Backend):
    """Template-method backend: plan fusion, build layers, time them."""

    #: op types this runtime cannot compile, per platform name (or "*")
    unsupported_ops: Dict[str, frozenset] = {}

    def fusion_config(self, spec: HardwareSpec) -> FusionConfig:
        return FusionConfig()

    # ------------------------------------------------------------------
    def compile(self, graph: Graph, spec: HardwareSpec,
                precision: DataType = DataType.FLOAT16,
                arep: Optional[AnalyzeRepresentation] = None
                ) -> BackendModel:
        if arep is not None and arep.graph is not graph:
            raise BackendError(
                f"{self.name}: the analyze representation is of graph "
                f"{arep.graph.name!r}, not of the graph being compiled")
        if not graph.value_info:
            infer_shapes(graph)
        self.check_supported(graph, spec, precision)
        if arep is None:
            arep = AnalyzeRepresentation(graph, precision)
        # fusion heuristics' op_class lookups, the truth units and the
        # caller's layer mapping all share the AR's per-op memos
        planner = FusionPlanner(arep, self.fusion_config(spec))
        groups = self.postprocess_groups(planner.plan(), arep)
        truth = OptimizedAnalyzeRepresentation(arep)
        units: List[object] = []
        for g in groups:
            if g.size > 1:
                units.append(truth.set_fused_op(g.members, folded=g.folded))
            else:
                units.append(g.members[0])
        layers = self.build_layers(groups, units, arep, precision)
        model = BackendModel(
            backend_name=self.name, graph=graph, precision=precision,
            spec=spec, layers=layers,
        )
        self._time_layers(model, arep, truth)
        return model

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def check_supported(self, graph: Graph, spec: HardwareSpec,
                        precision: DataType) -> None:
        banned = set(self.unsupported_ops.get("*", frozenset()))
        banned |= set(self.unsupported_ops.get(spec.name, frozenset()))
        if not banned:
            return
        offenders = sorted({n.op_type for n in graph.nodes if n.op_type in banned})
        if offenders:
            raise UnsupportedModelError(
                f"{self.name}: model {graph.name!r} uses op types "
                f"{offenders} not supported on {spec.name}")

    def postprocess_groups(self, groups: List[FusionGroup],
                           arep: AnalyzeRepresentation) -> List[FusionGroup]:
        """Backend-specific group rewriting (e.g. absorbing no-op groups)."""
        return groups

    def build_layers(self, groups: Sequence[FusionGroup],
                     units: Sequence[object],
                     arep: AnalyzeRepresentation,
                     precision: DataType) -> List[BackendLayer]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared building blocks
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_noops_into_neighbours(groups: List[FusionGroup],
                                     arep: AnalyzeRepresentation) -> List[FusionGroup]:
        """Absorb pure no-op groups (reshape chains) into the group that
        consumes their output — TensorRT makes them vanish entirely."""
        graph = arep.graph
        group_of_op: Dict[int, FusionGroup] = {}
        for g in groups:
            for m in g.members:
                group_of_op[id(m)] = g
        position = {id(o): i for i, o in enumerate(arep.ops)}
        absorbed = set()
        for g in groups:
            if g.kind != GroupKind.NOOP:
                continue
            target: Optional[FusionGroup] = None
            for m in g.members:
                for t in m.outputs:
                    for node in graph.consumers(t):
                        consumer = arep.op_by_output(node.outputs[0])
                        tg = group_of_op.get(id(consumer)) if consumer else None
                        if tg is not None and tg is not g:
                            target = tg
                            break
                    if target:
                        break
                if target:
                    break
            if target is None:
                # feeds only graph outputs: absorb into the producer group
                for m in g.members:
                    for t in m.inputs:
                        producer = arep.op_by_output(t)
                        tg = group_of_op.get(id(producer)) if producer else None
                        if tg is not None and tg is not g:
                            target = tg
                            break
                    if target:
                        break
            if target is None:
                continue  # degenerate graph of only no-ops
            target.members.extend(g.members)
            target.members.sort(key=lambda o: position[id(o)])
            for m in g.members:
                group_of_op[id(m)] = target
            absorbed.add(id(g))
        # by identity: FusionGroup equality would compare field by field
        return [g for g in groups if id(g) not in absorbed]

    @staticmethod
    def _unit_io(unit: object) -> Tuple[List[str], List[str]]:
        return list(unit.inputs), list(unit.outputs)  # type: ignore[attr-defined]
