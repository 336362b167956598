"""Backend abstraction (paper §3.3): a unified interface over the
simulated DNN inference runtimes.

A backend compiles a model graph into a list of :class:`BackendLayer`
objects and reports each layer's latency — exactly what a real
runtime's built-in profiler exposes.  The *mapping information* a layer
carries is deliberately backend-specific and incomplete (member names
for TensorRT-style layers, io tensors only for ONNX-Runtime-style fused
ops, opaque names for Myelin regions): PRoof's layer mapping must
reconstruct the full backend-layer → model-layer relation from it, like
it does against the real runtimes.

Ground truth: the simulator of course *knows* which model nodes each
backend layer executes (``BackendLayer.true_member_names``) — it needs
them to simulate latency.  Mapping code must never read the truth
fields; the test suite instead uses them to verify that mapping
reconstructs them exactly.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.arep import AnalyzeRepresentation
from ..analysis.oarep import FusedOp, OptimizedAnalyzeRepresentation
from ..analysis.opdefs import OpClass, OpCost, gemm_dims
from ..hardware.latency import LatencySimulator, WorkItem
from ..hardware.specs import HardwareSpec, spec_cache_key
from ..ir.fingerprint import tensor_fingerprint
from ..ir.graph import Graph
from ..ir.tensor import DataType, TensorInfo
from ..obs.trace import get_tracer

__all__ = [
    "BackendLayer", "BackendModel", "Backend", "BackendError",
    "UnsupportedModelError", "LayerKind", "work_item_for_unit",
    "layer_latency",
]


class BackendError(RuntimeError):
    """Raised when a backend cannot compile or run a model."""


class UnsupportedModelError(BackendError):
    """The runtime rejects the model (e.g. NPU op-support limits, or the
    TensorRT int8 Stable-Diffusion conversion failure the paper hit)."""


class LayerKind:
    """Kinds of backend layers."""

    EXECUTION = "execution"   # runs (fused) model operators
    REFORMAT = "reformat"     # tensor layout / datatype conversion copy


@dataclass
class BackendLayer:
    """One layer of the compiled backend engine.

    Public fields mirror what a runtime's profiler reports.  The
    ``exposed_*`` fields carry whatever mapping hints this runtime
    gives; ``true_*`` fields are simulation ground truth (off-limits to
    mapping code).
    """

    name: str
    kind: str = LayerKind.EXECUTION
    #: io tensor names in the *backend's* namespace
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    #: original model-node names, when the runtime exposes them (TRT-style)
    exposed_member_names: Optional[List[str]] = None
    #: per-layer latency from the runtime's built-in profiler, seconds
    latency_seconds: float = 0.0
    # --- simulation ground truth -------------------------------------
    true_member_names: List[str] = field(default_factory=list)
    true_folded_names: List[str] = field(default_factory=list)
    #: for reformat layers: (source model tensor, backend alias tensor)
    true_alias: Optional[Tuple[str, str]] = None

    @property
    def is_reformat(self) -> bool:
        return self.kind == LayerKind.REFORMAT


@dataclass
class BackendModel:
    """A compiled engine plus its per-layer profile."""

    backend_name: str
    graph: Graph
    precision: DataType
    spec: HardwareSpec
    layers: List[BackendLayer]
    #: simulation ground truth, aligned 1:1 with ``layers``: the truth
    #: analysis unit each execution layer times, or ``("reformat",
    #: TensorInfo)`` for conversion copies.  Off-limits to mapping code
    #: (like the ``true_*`` layer fields); the profiler's assemble path
    #: uses it to re-time a donor structure at a sibling precision.
    truth_units: Optional[List[object]] = None

    @property
    def total_latency_seconds(self) -> float:
        return sum(l.latency_seconds for l in self.layers)

    def execution_layers(self) -> List[BackendLayer]:
        return [l for l in self.layers if l.kind == LayerKind.EXECUTION]


def work_item_for_unit(
    unit,
    arep: AnalyzeRepresentation,
    precision: DataType,
    name: Optional[str] = None,
) -> WorkItem:
    """Build the hardware workload for an (optionally fused) analysis unit.

    The GEMM dimensions of the unit's dominant matrix op feed the
    latency model's tile-quantization term.
    """
    cost: OpCost = unit.cost(precision)
    op_class: OpClass = unit.op_class()
    best_dims = None
    best_flop = -1.0
    for node in unit.member_nodes:
        dims = gemm_dims(node, arep.tensor)
        if dims is None:
            continue
        m, n, k, batch = dims
        flop = 2.0 * m * n * k * batch
        if flop > best_flop:
            best_flop, best_dims = flop, (m, n, k)
    return WorkItem(
        name=name or getattr(unit, "name", "unit"),
        flop=cost.flop,
        read_bytes=cost.read_bytes,
        write_bytes=cost.write_bytes,
        op_class=op_class,
        precision=precision,
        gemm_mnk=best_dims,
    )


def reformat_work_item(name: str, info: TensorInfo,
                       precision: DataType) -> WorkItem:
    """Workload of a layout/datatype conversion copy layer."""
    itemsize = precision.itemsize if info.dtype.is_float else info.dtype.itemsize
    nbytes = info.numel * itemsize
    return WorkItem(
        name=name,
        flop=0.0,
        read_bytes=float(nbytes),
        write_bytes=float(nbytes),
        op_class=OpClass.DATA_MOVEMENT,
        precision=precision,
    )


def layer_latency(unit, name: str, arep: AnalyzeRepresentation,
                  sim: LatencySimulator, precision: DataType,
                  store, spec_key: str) -> float:
    """Simulated latency of one backend layer from its ground-truth unit.

    ``unit`` is the (fused) analysis unit the layer executes, or
    ``("reformat", TensorInfo)`` for a conversion copy.  With a layer
    ``store`` the latency is memoized under the layer's name-free
    fingerprint, ``spec_key`` and precision, so a shape already timed —
    in any graph — skips the simulator; without one the simulator runs
    and no fingerprint is built.
    """
    reformat = isinstance(unit, tuple)

    def compute() -> float:
        item = reformat_work_item(name, unit[1], precision) if reformat \
            else work_item_for_unit(unit, arep, precision, name=name)
        return sim.time(item).seconds

    if store is None:
        return compute()
    fingerprint = tensor_fingerprint(unit[1]) if reformat \
        else unit.layer_fingerprint()
    return store.record(("latency", fingerprint, spec_key, precision.value),
                        compute)


class Backend(abc.ABC):
    """A simulated DNN inference runtime."""

    #: short identifier, e.g. ``"trt-sim"``
    name: str = "backend"

    @abc.abstractmethod
    def compile(self, graph: Graph, spec: HardwareSpec,
                precision: DataType = DataType.FLOAT16,
                arep: Optional[AnalyzeRepresentation] = None
                ) -> BackendModel:
        """Optimize the model for ``spec`` and profile per-layer latency.

        ``arep`` is the caller's Analyze Representation of ``graph``;
        the backend plans and times over it (and its layer store, if
        any) instead of building its own, so one profile analyses each
        layer once.  Raises :class:`BackendError` when ``arep`` belongs
        to another graph, and :class:`UnsupportedModelError` when the
        runtime cannot handle the model (platform op-support limits).
        """

    # ------------------------------------------------------------------
    # shared helpers for concrete backends
    # ------------------------------------------------------------------
    def _time_layers(self, model: BackendModel,
                     arep: AnalyzeRepresentation,
                     truth: OptimizedAnalyzeRepresentation) -> None:
        """Fill ``latency_seconds`` on every layer from the ground-truth
        fusion plan via the hardware latency simulator."""
        with get_tracer().span("time_layers", backend=model.backend_name,
                               layers=len(model.layers)):
            self._time_layers_inner(model, arep, truth)

    def _time_layers_inner(self, model: BackendModel,
                           arep: AnalyzeRepresentation,
                           truth: OptimizedAnalyzeRepresentation) -> None:
        sim = LatencySimulator(model.spec)
        # when the AR carries a layer store, per-layer latencies are
        # memoized under name-free layer fingerprints
        store = getattr(arep, "layer_store", None)
        spec_key = spec_cache_key(model.spec) if store is not None else ""
        # layers name members by AnalyzedOp.name (unique per AR, with a
        # fallback for unnamed nodes), so truth units are keyed by it too
        units_by_first_member: Dict[str, object] = {
            unit.member_names[0]: unit for unit in truth.units}
        truth_aligned: List[object] = []
        for layer in model.layers:
            if layer.is_reformat:
                src = layer.true_alias[0] if layer.true_alias else layer.inputs[0]
                unit = ("reformat", arep.tensor(src))
            else:
                unit = units_by_first_member.get(layer.true_member_names[0])
                if unit is None:
                    raise BackendError(
                        f"internal: no truth unit for layer {layer.name!r}")
            truth_aligned.append(unit)
            layer.latency_seconds = layer_latency(
                unit, layer.name, arep, sim, model.precision, store, spec_key)
        model.truth_units = truth_aligned
