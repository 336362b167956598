"""Layer mapping: backend layers → model-design operators (paper §3.3).

Given a compiled :class:`~repro.backends.base.BackendModel` and a fresh
Optimized Analyze Representation, the per-runtime mappers reconstruct
which original model operators each backend layer executes, using only
the information the runtime *exposes*:

* TensorRT-style layers expose joined member names when available;
  opaque ``PWN(...)`` / Myelin regions expose io tensors only;
* ONNX-Runtime-style ``fused_op_N`` layers expose io tensors only —
  the mapper runs ``get_subgraph_ops_by_io`` exactly as in the paper's
  Figure 2;
* OpenVINO-style layers expose one friendly name, which the mapper
  cross-checks against the io-derived subgraph;
* reformat/reorder layers introduce alias tensors, registered through
  ``set_tensor_alias`` so later io searches resolve them.

Fused BatchNorm folding is *inferred* (a BN directly consuming a conv
inside the same fused layer must have been folded into the weights) —
the runtimes do not report it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.arep import AnalyzedOp
from ..analysis.oarep import MappingError, OptimizedAnalyzeRepresentation
from ..analysis.opdefs import OpClass
from ..obs.trace import get_tracer
from .base import BackendLayer, BackendModel, ReformatUnit

__all__ = ["MappedLayer", "LayerMapper", "map_layers", "mapper_for"]


@dataclass
class MappedLayer:
    """One backend layer paired with its analysis unit."""

    layer: BackendLayer
    unit: object  # AnalyzedOp | FusedOp | ReformatUnit

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def member_names(self) -> List[str]:
        if isinstance(self.unit, AnalyzedOp):
            return [self.unit.name]
        return list(self.unit.member_names)  # type: ignore[attr-defined]


def infer_folded(ops: Sequence[AnalyzedOp]) -> List[str]:
    """Members whose compute the runtime folded into weights: a
    BatchNormalization directly consuming a Conv member's output."""
    conv_outputs = set()
    for op in ops:
        if op.op_type == "Conv":
            conv_outputs.update(op.outputs)
    return [op.name for op in ops
            if op.op_type == "BatchNormalization"
            and any(t in conv_outputs for t in op.inputs)]


class LayerMapper:
    """io-search based mapping; subclasses add runtime-specific use of
    exposed names."""

    def map(self, model: BackendModel,
            oar: OptimizedAnalyzeRepresentation) -> List[MappedLayer]:
        mapped: List[MappedLayer] = []
        for layer in model.layers:
            if layer.is_reformat:
                mapped.append(self.map_reformat(layer, oar))
            else:
                mapped.append(self.map_execution(layer, oar))
        return mapped

    # ------------------------------------------------------------------
    def map_reformat(self, layer: BackendLayer,
                     oar: OptimizedAnalyzeRepresentation) -> MappedLayer:
        if len(layer.inputs) != 1 or len(layer.outputs) != 1:
            raise MappingError(
                f"reformat layer {layer.name!r} must have 1 input/output")
        src, dst = layer.inputs[0], layer.outputs[0]
        resolved_src = oar.resolve(src)
        if oar.arep.has_tensor(resolved_src):
            oar.set_tensor_alias(dst, resolved_src)
            model_tensor = resolved_src
        else:
            resolved_dst = oar.resolve(dst)
            if not oar.arep.has_tensor(resolved_dst):
                raise MappingError(
                    f"reformat {layer.name!r}: neither {src!r} nor {dst!r} "
                    "maps to a model tensor")
            oar.set_tensor_alias(src, resolved_dst)
            model_tensor = resolved_dst
        info = oar.arep.tensor(model_tensor)
        return MappedLayer(layer, ReformatUnit(layer.name, info))

    # ------------------------------------------------------------------
    def map_execution(self, layer: BackendLayer,
                      oar: OptimizedAnalyzeRepresentation) -> MappedLayer:
        ops = self.resolve_members(layer, oar)
        if not ops:
            raise MappingError(
                f"layer {layer.name!r}: no model operators found between "
                f"{layer.inputs} and {layer.outputs}")
        if len(ops) == 1:
            return MappedLayer(layer, ops[0])
        fused = oar.set_fused_op(ops, name=layer.name,
                                 folded=infer_folded(ops))
        return MappedLayer(layer, fused)

    def resolve_members(self, layer: BackendLayer,
                        oar: OptimizedAnalyzeRepresentation) -> List[AnalyzedOp]:
        return oar.get_subgraph_ops_by_io(layer.inputs, layer.outputs)


class TensorRTMapper(LayerMapper):
    """Uses exposed member names when TRT provides them; falls back to
    io-based subgraph search for PWN/Myelin layers."""

    def resolve_members(self, layer: BackendLayer,
                        oar: OptimizedAnalyzeRepresentation) -> List[AnalyzedOp]:
        if layer.exposed_member_names:
            ops: List[AnalyzedOp] = []
            for name in layer.exposed_member_names:
                op = oar.arep.op_by_name(name)
                if op is None:
                    raise MappingError(
                        f"layer {layer.name!r} references unknown model "
                        f"operator {name!r}")
                ops.append(op)
            # TRT absorbs adjacent no-op nodes without naming them; pull
            # in any zero-cost ops spanned by the layer's io so the
            # representation stays consistent with the fused graph.
            by_io = oar.get_subgraph_ops_by_io(layer.inputs, layer.outputs)
            named = {id(o) for o in ops}
            for op in by_io:
                if id(op) not in named and op.op_class() is OpClass.ZERO_COST:
                    ops.append(op)
            return ops
        return super().resolve_members(layer, oar)


class OnnxRuntimeMapper(LayerMapper):
    """Pure io-based mapping — the paper's Figure 2 workflow."""


class OpenVINOMapper(LayerMapper):
    """io-based subgraph search, cross-checked against the friendly name."""

    def resolve_members(self, layer: BackendLayer,
                        oar: OptimizedAnalyzeRepresentation) -> List[AnalyzedOp]:
        ops = super().resolve_members(layer, oar)
        if layer.exposed_member_names:
            friendly = set(layer.exposed_member_names)
            names = {op.name for op in ops}
            if not friendly & names:
                raise MappingError(
                    f"layer {layer.name!r}: friendly name(s) {sorted(friendly)} "
                    f"not found in io-derived subgraph {sorted(names)[:8]}")
        return ops


_MAPPERS = {"trt-sim": TensorRTMapper, "ort-sim": OnnxRuntimeMapper,
            "ov-sim": OpenVINOMapper}


def mapper_for(backend_name: str) -> LayerMapper:
    """Instantiate the mapper for a backend."""
    return _MAPPERS[backend_name]()


def map_layers(model: BackendModel,
               oar: OptimizedAnalyzeRepresentation) -> List[MappedLayer]:
    """Map every backend layer of a compiled model onto analysis units."""
    with get_tracer().span("map_layers", backend=model.backend_name,
                           backend_layers=len(model.layers)) as span:
        mapped = mapper_for(model.backend_name).map(model, oar)
        span.set("mapped_layers", len(mapped))
        return mapped
