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

from typing import List, Sequence

from ..analysis.arep import AnalyzedOp, AnalyzeRepresentation
from ..analysis.opdefs import OpClass
from ..hardware.specs import HardwareSpec
from ..ir.graph import Graph
from ..ir.tensor import DataType
from .base import BackendLayer, LayerKind, UnsupportedModelError
from .optimizer import FusionConfig, FusionGroup, GroupKind
from .simruntime import SimulatedRuntime

__all__ = ["TensorRTSim"]

#: op classes whose presence routes a fused region through Myelin
_MYELIN_CLASSES = {OpClass.NORMALIZATION, OpClass.SOFTMAX}


class TensorRTSim(SimulatedRuntime):
    """Simulated TensorRT backend."""

    name = "trt-sim"

    def fusion_config(self, spec: HardwareSpec) -> FusionConfig:
        return FusionConfig.aggressive()

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
        group_of_op = {}
        for g in groups:
            for m in g.members:
                group_of_op[id(m)] = g
        group_by_id = {id(g): g for g in groups}
        position = {id(o): i for i, o in enumerate(arep.ops)}
        absorbed = set()
        for g in groups:
            if g.kind != GroupKind.SINGLE or len(g.members) != 1:
                continue
            op = g.members[0]
            if op.op_class() is not OpClass.DATA_MOVEMENT:
                continue
            consumer_groups = set()
            for t in op.outputs:
                if t in arep.graph_outputs:
                    consumer_groups.add(None)
                for node in graph.consumers(t):
                    cop = arep.op_by_output(node.outputs[0])
                    consumer_groups.add(
                        id(group_of_op[id(cop)]) if cop else None)
            if len(consumer_groups) != 1 or None in consumer_groups:
                continue
            target = group_by_id[consumer_groups.pop()]
            if target.kind != GroupKind.MATMUL:
                continue
            target.members.extend(g.members)
            target.members.sort(key=lambda o: position[id(o)])
            for m in g.members:
                group_of_op[id(m)] = target
            absorbed.add(id(g))
        # by identity: FusionGroup equality would compare field by field
        return [g for g in groups if id(g) not in absorbed]

    # ------------------------------------------------------------------
    def build_layers(self, groups: Sequence[FusionGroup],
                     units: Sequence[object],
                     arep: AnalyzeRepresentation,
                     precision: DataType) -> List[BackendLayer]:
        layers: List[BackendLayer] = []
        # input Reformat copies: fp32 host tensors -> fp16 device format
        aliases = {}
        for t in arep.graph.inputs:
            reformatted = f"{t.name} reformatted"
            aliases[t.name] = reformatted
            layers.append(BackendLayer(
                name=f"Reformatting CopyNode for Input Tensor {t.name}",
                kind=LayerKind.REFORMAT,
                inputs=[t.name],
                outputs=[reformatted],
                true_alias=(t.name, reformatted),
            ))
        for group, unit in zip(groups, units):
            inputs, outputs = self._unit_io(unit)
            inputs = [aliases.get(t, t) for t in inputs]
            opaque = any(
                m.op_class() in _MYELIN_CLASSES
                and m.op_type != "BatchNormalization"
                for m in group.members)
            if group.kind == GroupKind.POINTWISE or opaque:
                if opaque:
                    name = ("{ForeignNode[" + group.members[0].name
                            + "..." + group.members[-1].name + "]}")
                else:
                    name = f"PWN({group.members[-1].name})"
                exposed = None          # io only: Myelin tells you nothing
            else:
                name = " + ".join(m.name for m in group.members)
                exposed = [m.name for m in group.members]
            layers.append(BackendLayer(
                name=name,
                kind=LayerKind.EXECUTION,
                inputs=inputs,
                outputs=list(outputs),
                exposed_member_names=exposed,
                true_member_names=[m.name for m in group.members],
                true_folded_names=list(group.folded),
            ))
        # output Reformat copies back to the host-facing format
        for t in arep.graph.outputs:
            reformatted = f"{t.name} reformatted (output)"
            layers.append(BackendLayer(
                name=f"Reformatting CopyNode for Output Tensor {t.name}",
                kind=LayerKind.REFORMAT,
                inputs=[t.name],
                outputs=[reformatted],
                true_alias=(t.name, reformatted),
            ))
        return layers
