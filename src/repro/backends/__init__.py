"""Simulated DNN inference runtimes and PRoof's layer mapping."""
from .base import (Backend, BackendError, BackendLayer, BackendModel,
                   LayerKind, ReformatUnit, UnsupportedModelError,
                   work_item_for_unit)
from .optimizer import FusionConfig, FusionGroup, FusionPlanner, GroupKind
from .trtsim import TensorRTSim
from .ortsim import OnnxRuntimeSim
from .ovsim import OpenVINOSim
from .mapping import LayerMapper, MappedLayer, map_layers, mapper_for

__all__ = [
    "Backend", "BackendError", "BackendLayer", "BackendModel", "LayerKind",
    "UnsupportedModelError", "work_item_for_unit",
    "FusionConfig", "FusionGroup", "FusionPlanner", "GroupKind",
    "TensorRTSim", "OnnxRuntimeSim", "OpenVINOSim",
    "LayerMapper", "MappedLayer", "ReformatUnit", "map_layers", "mapper_for",
    "BACKENDS", "backend_by_name",
]

BACKENDS = {
    "trt-sim": TensorRTSim,
    "ort-sim": OnnxRuntimeSim,
    "ov-sim": OpenVINOSim,
}


def backend_by_name(name: str) -> Backend:
    """Instantiate a backend by its CLI name."""
    key = name.strip().lower()
    if key not in BACKENDS:
        raise KeyError(f"unknown backend {name!r}; available: {', '.join(BACKENDS)}")
    return BACKENDS[key]()
