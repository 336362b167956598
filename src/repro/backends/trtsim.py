"""TensorRT-style simulated runtime (``trt-sim``).

Reproduces the behaviours of NVIDIA TensorRT that matter for layer
mapping and per-layer profiling:

* **aggressive fusion** — BN folding, conv/GEMM epilogue fusion with
  residual adds and activations, and pointwise (PWN) region fusion that
  swallows LayerNorm like the Myelin optimizer does;
* **no-op elimination** — Reshape/Squeeze chains vanish into adjacent
  layers;
* **Reformat layers** — datatype/layout conversion copies inserted at
  engine boundaries (visible as "Reformatting CopyNode …" in real TRT
  profiles);
* **naming policy** — conv/GEMM layers expose the joined names of their
  fused members ("conv1 + bn1 + relu1"), while pointwise/Myelin regions
  get opaque ``PWN(...)`` / ``{ForeignNode[...]}`` names that expose
  only io tensors, so PRoof must recover their contents by graph search
  (paper §1: "Myelin … does not provide any information about the
  mapping");
* the paper's footnote-5 limitation: the Stable-Diffusion UNet fails to
  convert under int8.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.arep import AnalyzeRepresentation
from ..analysis.opdefs import OpClass
from ..hardware.specs import HardwareSpec
from ..ir.graph import Graph
from ..ir.tensor import DataType
from .base import Backend, UnsupportedModelError
from .optimizer import FusionConfig, FusionGroup, GroupKind

__all__ = ["TensorRTSim"]

#: op classes whose presence routes a fused region through Myelin
_MYELIN_CLASSES = {OpClass.NORMALIZATION, OpClass.SOFTMAX}


def _absorb(groups: List[FusionGroup], arep: AnalyzeRepresentation,
            target_of: Callable[[FusionGroup, Dict[int, FusionGroup]],
                                Optional[FusionGroup]]
            ) -> List[FusionGroup]:
    """Move each group into the group ``target_of(group, group_of_op)``
    picks (None: it stays), in group order: the target's members stay
    in topological order and later picks see the moved ops in their
    new group."""
    group_of_op = {id(m): g for g in groups for m in g.members}
    position = {id(o): i for i, o in enumerate(arep.ops)}
    absorbed = set()
    for g in groups:
        target = target_of(g, group_of_op)
        if target is None:
            continue
        target.members.extend(g.members)
        target.members.sort(key=lambda o: position[id(o)])
        for m in g.members:
            group_of_op[id(m)] = target
        absorbed.add(id(g))
    # by identity: FusionGroup equality would compare field by field
    return [g for g in groups if id(g) not in absorbed]


class TensorRTSim(Backend):
    """Simulated TensorRT backend."""

    name = "trt-sim"
    fusion_config = FusionConfig.aggressive()
    # fp32 host tensors -> fp16 device format, and back at the outputs
    input_reformat = ("Reformatting CopyNode for Input Tensor {t}",
                      "{t} reformatted")
    output_reformat = ("Reformatting CopyNode for Output Tensor {t}",
                       "{t} reformatted (output)")

    def execution_layer(self, group: FusionGroup, position: int
                        ) -> Tuple[str, Optional[List[str]]]:
        # io only for PWN / Myelin regions: Myelin tells you nothing
        if any(m.op_class() in _MYELIN_CLASSES
               and m.op_type != "BatchNormalization"
               for m in group.members):
            return ("{ForeignNode[" + group.members[0].name + "..."
                    + group.members[-1].name + "]}"), None
        if group.kind == GroupKind.POINTWISE:
            return f"PWN({group.members[-1].name})", None
        return " + ".join(group.names), group.names

    def check_supported(self, graph: Graph, spec: HardwareSpec,
                        precision: DataType) -> None:
        super().check_supported(graph, spec, precision)
        if precision is DataType.INT8 and "stable-diffusion" in graph.name:
            # TensorRT fails converting the SD UNet to int8 (paper fn. 5)
            raise UnsupportedModelError(
                f"{self.name}: {graph.name!r} fails int8 engine conversion")

    def postprocess_groups(self, groups: List[FusionGroup],
                           arep: AnalyzeRepresentation) -> List[FusionGroup]:
        groups = self._merge_noops_into_neighbours(groups, arep)
        return self._absorb_movement_into_matmuls(groups, arep)

    @staticmethod
    def _merge_noops_into_neighbours(groups: List[FusionGroup],
                                     arep: AnalyzeRepresentation
                                     ) -> List[FusionGroup]:
        """Absorb pure no-op groups (reshape chains) into the group that
        consumes their output, or else into their producer's group —
        TensorRT makes them vanish entirely."""
        graph = arep.graph

        def target_of(g, group_of_op):
            if g.kind != GroupKind.NOOP:
                return None
            for m in g.members:
                for t in m.outputs:
                    for node in graph.consumers(t):
                        consumer = arep.op_by_output(node.outputs[0])
                        tg = group_of_op.get(id(consumer)) if consumer else None
                        if tg is not None and tg is not g:
                            return tg
            # feeds only graph outputs: absorb into the producer group
            # (none for a degenerate graph of only no-ops)
            for m in g.members:
                for t in m.inputs:
                    producer = arep.op_by_output(t)
                    tg = group_of_op.get(id(producer)) if producer else None
                    if tg is not None and tg is not g:
                        return tg
            return None

        return _absorb(groups, arep, target_of)

    @staticmethod
    def _absorb_movement_into_matmuls(groups: List[FusionGroup],
                                      arep: AnalyzeRepresentation
                                      ) -> List[FusionGroup]:
        """Myelin-style plumbing elimination: a standalone transpose /
        slice whose output feeds exactly one GEMM group is computed as
        part of that GEMM's address generation, never materialized.
        Attention QKV reshapes and the post-attention transpose vanish
        into the adjacent MatMul layers this way — the reason real TRT
        transformer profiles show so few copy layers."""
        graph = arep.graph

        def target_of(g, group_of_op):
            if g.kind != GroupKind.SINGLE or len(g.members) != 1:
                return None
            op = g.members[0]
            if op.op_class() is not OpClass.DATA_MOVEMENT:
                return None
            targets = {}
            for t in op.outputs:
                if t in arep.graph_outputs:
                    return None
                for node in graph.consumers(t):
                    cop = arep.op_by_output(node.outputs[0])
                    if cop is None:
                        return None
                    tg = group_of_op[id(cop)]
                    targets[id(tg)] = tg
            if len(targets) != 1:
                return None
            (target,) = targets.values()
            return target if target.kind == GroupKind.MATMUL else None

        return _absorb(groups, arep, target_of)
