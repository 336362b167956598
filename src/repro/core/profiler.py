"""The PRoof profiler: the framework's main driver (paper Figure 1).

``Profiler.profile`` runs the full backend workflow:

1. build the Analyze Representation, compile the model over it with
   the chosen backend (simulated runtime) and read per-backend-layer
   latencies from its built-in profiler;
2. run **layer mapping** over the same Analyze Representation to
   transform an Optimized Analyze Representation into the backend's
   fused layer structure (§3.3, Figure 2);
3. attach per-layer FLOP and memory bytes — either **predicted** by the
   analytical model (§3.2, Equation 1) or **measured** through the
   simulated hardware-counter profiler (§4.2), whose replay overhead is
   accounted in ``profiling_overhead_seconds``;
4. aggregate the end-to-end roofline point and return a
   :class:`~repro.core.report.ProfileReport`.
"""
from __future__ import annotations

import dataclasses
import logging
import time
from contextlib import contextmanager
from typing import Dict, Optional, Union

from ..analysis.cache import AnalysisCache, MappedEntry, shared_analysis_cache
from ..analysis.oarep import OptimizedAnalyzeRepresentation
from ..backends import Backend, backend_by_name, map_layers
from ..backends.base import BackendModel, layer_latency
from ..backends.mapping import MappedLayer
from ..hardware.counters import CounterProfiler
from ..hardware.latency import LatencySimulator
from ..hardware.specs import HardwareSpec, platform, spec_cache_key
from ..ir.graph import Graph
from ..ir.tensor import DataType
from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from .report import EndToEnd, LayerProfile, MetricSource, ProfileReport
from .roofline import Roofline, RooflinePoint, roofline_for

__all__ = ["Profiler", "profile_model"]

log = logging.getLogger(__name__)


@contextmanager
def _stage(tracer, stages: Optional[Dict[str, float]], name: str,
           **attributes):
    """Span + accumulated wall time for one pipeline stage.

    ``stages`` is None when tracing is off, and then no time is
    recorded — reports must stay bit-identical to the untraced path.
    """
    t0 = time.perf_counter()
    with tracer.span(name, **attributes) as span:
        yield span
    if stages is not None:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0


def _graph_batch_size(graph: Graph) -> int:
    """Leading dim of the first input, defaulting to 1 for symbolic dims.

    Builders may leave the batch dimension symbolic (a string like
    ``"N"``); that must not leak into ``EndToEnd.batch_size``, which is
    arithmetic downstream (per-sample latency, throughput).
    """
    if graph.inputs and graph.inputs[0].shape:
        dim = graph.inputs[0].shape[0]
        if isinstance(dim, bool):
            return 1
        if isinstance(dim, int) and dim > 0:
            return dim
    return 1


class Profiler:
    """Configured PRoof instance: backend + platform + precision + mode."""

    def __init__(
        self,
        backend: Union[Backend, str],
        spec: Union[HardwareSpec, str],
        precision: Union[DataType, str] = DataType.FLOAT16,
        metric_source: str = MetricSource.PREDICTED,
        analysis_cache: Union[AnalysisCache, bool, None] = True,
        tracer=None,
    ) -> None:
        self.backend = backend_by_name(backend) if isinstance(backend, str) \
            else backend
        self.spec = platform(spec) if isinstance(spec, str) else spec
        self.precision = DataType.parse(precision) \
            if isinstance(precision, str) else precision
        if metric_source not in (MetricSource.PREDICTED, MetricSource.MEASURED):
            raise ValueError(f"unknown metric source {metric_source!r}")
        self.metric_source = metric_source
        self.counters = CounterProfiler(self.spec)
        #: memoizes shapes / AR / OAR+mapping across profile() calls;
        #: ``True`` (default) uses the process-wide shared cache,
        #: ``False``/``None`` reuses nothing across calls, an instance
        #: scopes it explicitly
        if analysis_cache is True:
            self.analysis_cache: Optional[AnalysisCache] = \
                shared_analysis_cache()
        elif analysis_cache in (False, None):
            self.analysis_cache = None
        else:
            self.analysis_cache = analysis_cache
        #: pinned tracer for embedding (the service worker pool); None
        #: resolves the process-wide tracer at each profile() call, so
        #: ``proof run --trace`` reaches already-constructed profilers
        self.tracer = tracer

    def _tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    # ------------------------------------------------------------------
    def _spec_key(self) -> str:
        return spec_cache_key(self.spec)

    def _mapped_entry(self, graph: Graph, tracer=None,
                      stages: Optional[Dict[str, float]] = None
                      ) -> MappedEntry:
        """Structural phase: compile, AR, OAR, layer mapping — memoized.

        Without a configured cache each call gets a fresh, store-free
        one: nothing is reused and no process-wide counter moves.
        """
        if tracer is None:
            tracer = self._tracer()
        cache = self.analysis_cache if self.analysis_cache is not None \
            else AnalysisCache(metrics=MetricsRegistry(), layer_store=False)
        built = []
        assembled = []

        def build() -> MappedEntry:
            built.append(True)
            with _stage(tracer, stages, "arep"):
                arep = cache.arep(graph, self.precision)
            # compile and mapping share one AR, so each layer is
            # fingerprinted, classified and costed once per profile.  A
            # cached AR sits on the graph the cache holds for this
            # fingerprint, often an equal-fingerprint sibling of
            # ``graph``; the backend compiles the AR's own graph
            with _stage(tracer, stages, "compile",
                        backend=self.backend.name):
                compiled = self.backend.compile(
                    arep.graph, self.spec, self.precision, arep=arep)
            with _stage(tracer, stages, "oar"):
                oar = OptimizedAnalyzeRepresentation(arep)
            with _stage(tracer, stages, "mapping",
                        backend_layers=len(compiled.layers)):
                mapped = map_layers(compiled, oar)
            return MappedEntry(compiled=compiled, arep=arep, oar=oar,
                               mapped=mapped)

        def assemble(donor: MappedEntry) -> MappedEntry:
            with _stage(tracer, stages, "assemble",
                        backend=self.backend.name):
                entry = self._assemble_entry(donor)
            if entry is not donor:
                assembled.append(True)
            return entry

        with tracer.span("mapped_entry") as span:
            entry = cache.mapped_entry(graph, self.backend.name,
                                       self._spec_key(), build, assemble)
            span.set("cache_hit", not built and not assembled)
            span.set("assembled", bool(assembled))
        return entry

    def _assemble_entry(self, donor: MappedEntry) -> MappedEntry:
        """This profiler's entry from the ``structure`` tier's donor.

        At the donor's precision that is the donor itself.  Otherwise
        only per-layer latencies change — the backend's fusion plan,
        layer list and mapping are precision-free — so each layer is
        re-timed from its ground-truth unit through the layer store's
        latency records (a dict lookup per layer on a warm store),
        falling back to the latency simulator for shapes never timed at
        this precision.  Per-precision support limits still apply:
        ``check_supported`` runs exactly as a cold compile would.

        The entry shares the donor's AR and OAR: units cost themselves
        at any precision, and the AR's graph and tensor table do not
        depend on it.  Only a configured cache with a layer store
        offers a donor, so the store is always there.
        """
        compiled = donor.compiled
        if compiled.precision == self.precision:
            return donor
        arep = donor.arep
        self.backend.check_supported(arep.graph, self.spec, self.precision)
        store = self.analysis_cache.layer_store
        sim = LatencySimulator(self.spec)
        spec_key = self._spec_key()
        new_layers = []
        new_mapped = []
        for layer, unit, m in zip(compiled.layers, compiled.truth_units,
                                  donor.mapped):
            new_layer = dataclasses.replace(
                layer, latency_seconds=layer_latency(
                    unit, layer.name, arep, sim, self.precision, store,
                    spec_key))
            new_layers.append(new_layer)
            new_mapped.append(MappedLayer(layer=new_layer, unit=m.unit))
        new_model = BackendModel(
            backend_name=compiled.backend_name, graph=arep.graph,
            precision=self.precision, spec=self.spec, layers=new_layers,
            truth_units=compiled.truth_units)
        return MappedEntry(compiled=new_model, arep=arep,
                           oar=donor.oar, mapped=new_mapped)

    def profile(self, graph: Graph) -> ProfileReport:
        """Run the full workflow on a model graph."""
        tracer = self._tracer()
        stages: Optional[Dict[str, float]] = {} if tracer.enabled else None
        t0 = time.perf_counter()
        with tracer.span("profile", model=graph.name,
                         backend=self.backend.name,
                         platform=self.spec.name,
                         precision=self.precision.value,
                         metric_source=self.metric_source):
            report = self._profile(graph, tracer, stages)
        if stages is not None:
            report.stage_seconds = dict(stages)
            log.debug("profiled %s on %s/%s in %.1f ms (stages: %s)",
                      graph.name, self.backend.name, self.spec.name,
                      (time.perf_counter() - t0) * 1e3,
                      ", ".join(f"{k}={v * 1e3:.2f}ms"
                                for k, v in stages.items()))
        return report

    def _profile(self, graph: Graph, tracer,
                 stages: Optional[Dict[str, float]]) -> ProfileReport:
        entry = self._mapped_entry(graph, tracer, stages)
        compiled, arep, mapped = entry.compiled, entry.arep, entry.mapped
        with _stage(tracer, stages, "layer_profiles", layers=len(mapped)):
            # fresh lists per call: MEASURED mode mutates them in place
            layers = [self._layer_profile(m) for m in mapped]
        overhead = 0.0
        if self.metric_source == MetricSource.MEASURED:
            with _stage(tracer, stages, "measured_replay",
                        layers=len(mapped)):
                measurements = self._measurements(mapped, arep)
                for lp, meas in zip(layers, measurements):
                    lp.flop = meas.hardware_flop
                    total = lp.read_bytes + lp.write_bytes
                    ratio = meas.memory_bytes / total if total > 0 else 0.0
                    lp.read_bytes *= ratio
                    lp.write_bytes *= ratio
                overhead = self.counters.profiling_seconds(
                    measurements, [lp.latency_seconds for lp in layers])
        batch = _graph_batch_size(graph)
        e2e = EndToEnd(
            latency_seconds=sum(l.latency_seconds for l in layers),
            flop=sum(l.flop for l in layers),
            memory_bytes=sum(l.memory_bytes for l in layers),
            batch_size=batch,
        )
        with _stage(tracer, stages, "roofline"):
            roof = self.roofline()
        return ProfileReport(
            model_name=graph.name,
            backend_name=compiled.backend_name,
            platform_name=self.spec.name,
            precision=self.precision.value,
            batch_size=batch,
            metric_source=self.metric_source,
            layers=layers,
            end_to_end=e2e,
            peak_flops=roof.peak_flops,
            peak_bandwidth=roof.peak_bandwidth,
            profiling_overhead_seconds=overhead,
        )

    # ------------------------------------------------------------------
    def roofline(self) -> Roofline:
        return roofline_for(self.spec, self.precision)

    def _layer_profile(self, m: MappedLayer) -> LayerProfile:
        cost = m.unit.cost(self.precision)  # type: ignore[attr-defined]
        folded = []
        if hasattr(m.unit, "folded"):
            folded = sorted(m.unit.folded)  # type: ignore[attr-defined]
        return LayerProfile(
            name=m.layer.name,
            kind=m.layer.kind,
            op_class=m.unit.op_class().value,  # type: ignore[attr-defined]
            latency_seconds=m.layer.latency_seconds,
            flop=cost.flop,
            read_bytes=cost.read_bytes,
            write_bytes=cost.write_bytes,
            model_layers=m.member_names,
            folded_layers=folded,
        )

    def _measurements(self, mapped, arep):
        return [self.counters.measure(
                    m.layer.name, m.unit.member_nodes, arep.tensor,
                    m.unit.cost(self.precision).memory_bytes,
                    m.unit.op_class(), self.precision,
                    folded=getattr(m.unit, "folded", ()))
                for m in mapped]

    # ------------------------------------------------------------------
    # chart helpers
    # ------------------------------------------------------------------
    def layer_points(self, report: ProfileReport) -> list:
        """Layer-wise roofline points weighted by latency share (Fig. 5)."""
        total = report.end_to_end.latency_seconds
        pts = []
        for layer in report.layers:
            if layer.flop <= 0 and layer.memory_bytes <= 0:
                continue
            pts.append(RooflinePoint(
                name=layer.name,
                arithmetic_intensity=layer.arithmetic_intensity,
                achieved_flops=layer.achieved_flops,
                weight=layer.latency_seconds / total if total > 0 else 0.0,
                tag=layer.op_class,
            ))
        return pts

    def end_to_end_point(self, report: ProfileReport) -> RooflinePoint:
        """The whole model as one roofline point (Figure 4)."""
        return RooflinePoint(
            name=report.model_name,
            arithmetic_intensity=report.end_to_end.arithmetic_intensity,
            achieved_flops=report.end_to_end.achieved_flops,
            weight=1.0,
            tag="end-to-end",
        )


def profile_model(graph: Graph, backend: Union[Backend, str] = "trt-sim",
                  spec: Union[HardwareSpec, str] = "a100",
                  precision: Union[DataType, str] = DataType.FLOAT16,
                  metric_source: str = MetricSource.PREDICTED) -> ProfileReport:
    """One-call convenience API: profile a graph and return the report."""
    return Profiler(backend, spec, precision, metric_source).profile(graph)
