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

One :class:`Backend` class plans fusion, builds the layers and times
them.  The concrete runtimes (:mod:`trtsim`, :mod:`ortsim`,
:mod:`ovsim`) supply only what differs between the real TensorRT /
ONNX Runtime / OpenVINO: how hard they fuse, how they name layers and
which mapping hints they expose, and how they name the conversion
copies at the graph boundary.

Ground truth: the simulator of course *knows* which model nodes each
backend layer executes (``BackendLayer.true_member_names``) — it needs
them to simulate latency.  Mapping code must never read the truth
fields; the test suite instead uses them to verify that mapping
reconstructs them exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.arep import AnalyzeRepresentation
from ..analysis.oarep import OptimizedAnalyzeRepresentation
from ..analysis.opdefs import OpClass, OpCost, gemm_dims
from ..hardware.latency import LatencySimulator, WorkItem
from ..hardware.specs import HardwareSpec, spec_cache_key
from ..ir.fingerprint import tensor_fingerprint
from ..ir.graph import Graph
from ..ir.node import Node
from ..ir.shape_inference import infer_shapes
from ..ir.tensor import DataType, TensorInfo
from ..obs.trace import get_tracer
from .optimizer import FusionConfig, FusionGroup, FusionPlanner

__all__ = [
    "BackendLayer", "BackendModel", "Backend", "BackendError",
    "UnsupportedModelError", "LayerKind", "ReformatUnit",
    "work_item_for_unit", "layer_latency",
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
    #: analysis unit each layer times (a :class:`ReformatUnit` for
    #: conversion copies).  Off-limits to mapping code
    #: (like the ``true_*`` layer fields); the profiler's assemble path
    #: uses it to re-time a donor structure at a sibling precision.
    truth_units: Optional[List[object]] = None

    @property
    def total_latency_seconds(self) -> float:
        return sum(l.latency_seconds for l in self.layers)

    def execution_layers(self) -> List[BackendLayer]:
        return [l for l in self.layers if l.kind == LayerKind.EXECUTION]


class ReformatUnit:
    """Analysis unit of a runtime-inserted conversion copy.

    It has no model operators; its cost is one read + one write of the
    converted tensor.  The simulator times it and layer mapping
    rebuilds it from the layer's io alone.
    """

    def __init__(self, name: str, info: TensorInfo) -> None:
        self.name = name
        self.info = info
        self.inputs = [info.name]
        self.outputs = [f"{info.name}::reformat"]

    def layer_fingerprint(self) -> str:
        """Name-free identity: the converted tensor's shape + dtype."""
        return tensor_fingerprint(self.info)

    @property
    def member_nodes(self) -> List[Node]:
        return []

    @property
    def member_names(self) -> List[str]:
        return []

    def op_class(self) -> OpClass:
        return OpClass.DATA_MOVEMENT

    def cost(self, precision: Optional[DataType] = None) -> OpCost:
        precision = precision or DataType.FLOAT16
        itemsize = precision.itemsize if self.info.dtype.is_float \
            else self.info.dtype.itemsize
        nbytes = float(self.info.numel * itemsize)
        return OpCost(0.0, nbytes, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReformatUnit({self.name!r})"


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


def layer_latency(unit, name: str, arep: AnalyzeRepresentation,
                  sim: LatencySimulator, precision: DataType,
                  store, spec_key: str) -> float:
    """Simulated latency of one backend layer from its ground-truth unit.

    With a layer ``store`` the latency is memoized under the unit's
    name-free fingerprint, ``spec_key`` and precision, so a shape
    already timed — in any graph — skips the simulator; without one the
    simulator runs and no fingerprint is built.
    """
    def compute() -> float:
        return sim.time(work_item_for_unit(unit, arep, precision,
                                           name=name)).seconds

    if store is None:
        return compute()
    return store.record(("latency", unit.layer_fingerprint(), spec_key,
                         precision.value), compute)


class Backend:
    """A simulated DNN inference runtime: plan fusion, build layers,
    time them.

    Subclasses set :attr:`name`, :attr:`fusion_config`, the two
    conversion-copy templates and :meth:`execution_layer`; OpenVINO
    also sets :attr:`unsupported_ops`, and TensorRT overrides
    :meth:`check_supported` and :meth:`postprocess_groups`.
    """

    #: short identifier, e.g. ``"trt-sim"``
    name: str = "backend"
    #: which optional fusion passes this runtime performs
    fusion_config: FusionConfig
    #: op types this runtime cannot compile, per platform name
    unsupported_ops: Dict[str, frozenset] = {}
    #: ``(layer name, alias tensor)`` templates of the conversion copy
    #: inserted at each graph input and output; ``{t}`` is the model
    #: tensor's name and ``{i}`` the layer's 1-based position
    input_reformat: Tuple[str, str]
    output_reformat: Tuple[str, str]

    def execution_layer(self, group: FusionGroup, position: int
                        ) -> Tuple[str, Optional[List[str]]]:
        """The name of the layer executing ``group`` at 1-based
        ``position``, and the member names it exposes (None: io only)."""
        raise NotImplementedError

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
        groups = self.postprocess_groups(
            FusionPlanner(arep, self.fusion_config).plan(), arep)
        truth = OptimizedAnalyzeRepresentation(arep)
        units = [truth.set_fused_op(g.members, folded=g.folded)
                 if g.size > 1 else g.members[0] for g in groups]
        layers, truth_units = self.build_layers(groups, units, arep)
        model = BackendModel(
            backend_name=self.name, graph=graph, precision=precision,
            spec=spec, layers=layers, truth_units=truth_units)
        self._time_layers(model, arep)
        return model

    def check_supported(self, graph: Graph, spec: HardwareSpec,
                        precision: DataType) -> None:
        banned = self.unsupported_ops.get(spec.name, frozenset())
        offenders = sorted({n.op_type for n in graph.nodes} & banned)
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
                     arep: AnalyzeRepresentation
                     ) -> Tuple[List[BackendLayer], List[object]]:
        """The engine's layers and their aligned truth units: a
        conversion copy per graph input, one execution layer per fusion
        group (reading the copies' alias tensors), then a conversion
        copy per graph output."""
        layers: List[BackendLayer] = []
        truth: List[object] = []

        def reformat(tensor: str, template: Tuple[str, str]) -> str:
            name, alias = (part.format(t=tensor, i=len(layers) + 1)
                           for part in template)
            layers.append(BackendLayer(
                name=name, kind=LayerKind.REFORMAT, inputs=[tensor],
                outputs=[alias], true_alias=(tensor, alias)))
            truth.append(ReformatUnit(name, arep.tensor(tensor)))
            return alias

        aliases = {t.name: reformat(t.name, self.input_reformat)
                   for t in arep.graph.inputs}
        for group, unit in zip(groups, units):
            name, exposed = self.execution_layer(group, len(layers) + 1)
            layers.append(BackendLayer(
                name=name,
                inputs=[aliases.get(t, t) for t in unit.inputs],
                outputs=list(unit.outputs),
                exposed_member_names=exposed,
                true_member_names=group.names,
                true_folded_names=list(group.folded)))
            truth.append(unit)
        for t in arep.graph.outputs:
            reformat(t.name, self.output_reformat)
        return layers, truth

    def _time_layers(self, model: BackendModel,
                     arep: AnalyzeRepresentation) -> None:
        """Fill ``latency_seconds`` on every layer from its truth unit
        via the hardware latency simulator."""
        with get_tracer().span("time_layers", backend=model.backend_name,
                               layers=len(model.layers)):
            sim = LatencySimulator(model.spec)
            # when the AR carries a layer store, per-layer latencies are
            # memoized under name-free layer fingerprints
            store = getattr(arep, "layer_store", None)
            spec_key = spec_cache_key(model.spec) if store is not None \
                else ""
            for layer, unit in zip(model.layers, model.truth_units):
                layer.latency_seconds = layer_latency(
                    unit, layer.name, arep, sim, model.precision, store,
                    spec_key)
