"""Vendor hardware-profiler baseline (Table 1 row 3).

What Nsight Compute gives you when pointed at an inference runtime:
per-*kernel* hardware metrics (FLOP, DRAM bytes, duration) under
mangled kernel names — accurate, but with no model-layer association
("kernel name only" in Table 1) and at a heavy replay cost.

Kernel names follow the vendor library conventions
(``sm80_xmma_gemm_f16f16_...``, ``ampere_scudnn_...``), generated
deterministically from the layer's workload — recognizable to a GPU
engineer, useless for attributing time to ``layer3.5/conv2``.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Union

from ..analysis.arep import AnalyzeRepresentation
from ..analysis.oarep import OptimizedAnalyzeRepresentation
from ..analysis.opdefs import OpClass
from ..backends import Backend, ReformatUnit, backend_by_name, map_layers
from ..hardware.counters import CounterProfiler
from ..hardware.specs import HardwareSpec, platform
from ..ir.graph import Graph
from ..ir.tensor import DataType

__all__ = ["KernelStat", "KernelProfiler"]

_KERNEL_FAMILIES = {
    OpClass.MATMUL: "sm80_xmma_gemm_f16f16_f16f32_tn_n",
    OpClass.CONV: "ampere_scudnn_winograd_128x128_ldg1_ldg4",
    OpClass.POINTWISE_CONV: "sm80_xmma_fprop_implicit_gemm_f16f16",
    OpClass.DEPTHWISE_CONV: "void cudnn::ops::dgrad2d_grouped_direct",
    OpClass.ELEMENTWISE: "void genericPointwiseKernel<float2>",
    OpClass.NORMALIZATION: "void cask_plugin::norm_fused_tma",
    OpClass.SOFTMAX: "void softmax_warp_forward<half>",
    OpClass.REDUCTION: "void reduce_kernel<ReduceAdd>",
    OpClass.DATA_MOVEMENT: "void copyPackedKernel<int4>",
    OpClass.EMBEDDING: "void indexSelectLargeIndex<half>",
    OpClass.ZERO_COST: "void noopKernel",
}


def _mangle(base: str, payload: str) -> str:
    digest = hashlib.sha1(payload.encode()).hexdigest()[:8]
    return f"{base}_{digest}"


@dataclass(frozen=True)
class KernelStat:
    """One kernel row of the vendor profiler's report."""

    kernel_name: str
    duration_seconds: float
    flop: float
    dram_bytes: float

    @property
    def achieved_flops(self) -> float:
        return self.flop / self.duration_seconds \
            if self.duration_seconds > 0 else 0.0


class KernelProfiler:
    """Nsight-Compute-style kernel profiling of a compiled engine."""

    def __init__(self, backend: Union[Backend, str],
                 spec: Union[HardwareSpec, str],
                 precision: Union[DataType, str] = DataType.FLOAT16) -> None:
        self.backend = backend_by_name(backend) if isinstance(backend, str) \
            else backend
        self.spec = platform(spec) if isinstance(spec, str) else spec
        self.precision = DataType.parse(precision) \
            if isinstance(precision, str) else precision
        self.counters = CounterProfiler(self.spec)
        self.last_profiling_seconds = 0.0

    def profile(self, graph: Graph) -> List[KernelStat]:
        """Collect per-kernel hardware metrics (with replay overhead
        recorded in :attr:`last_profiling_seconds`)."""
        compiled = self.backend.compile(graph, self.spec, self.precision)
        arep = AnalyzeRepresentation(graph, self.precision)
        oar = OptimizedAnalyzeRepresentation(arep)
        mapped = map_layers(compiled, oar)
        stats: List[KernelStat] = []
        measurements = []
        for m in mapped:
            if isinstance(m.unit, ReformatUnit):
                cost = m.unit.cost(self.precision)
                meas = self.counters.measure(
                    m.layer.name, [], arep.tensor, cost.memory_bytes,
                    OpClass.DATA_MOVEMENT, self.precision)
                klass = OpClass.DATA_MOVEMENT
            else:
                cost = m.unit.cost(self.precision)
                klass = m.unit.op_class()
                meas = self.counters.measure(
                    m.layer.name, m.unit.member_nodes, arep.tensor,
                    cost.memory_bytes, klass, self.precision,
                    folded=getattr(m.unit, "folded", ()))
            measurements.append(meas)
            stats.append(KernelStat(
                kernel_name=_mangle(_KERNEL_FAMILIES[klass], m.layer.name),
                duration_seconds=m.layer.latency_seconds,
                flop=meas.hardware_flop,
                dram_bytes=meas.memory_bytes,
            ))
        self.last_profiling_seconds = self.counters.profiling_seconds(
            measurements, [s.duration_seconds for s in stats])
        return stats

    # ------------------------------------------------------------------
    def design_coverage(self, graph: Graph) -> float:
        """Share of model-design layers identifiable from kernel names:
        by construction approximately zero — the Table 1 "kernel name
        only" cell."""
        stats = self.profile(graph)
        model_names = {n.name for n in graph.nodes if n.name}
        covered = set()
        for s in stats:
            for name in model_names:
                if name in s.kernel_name:
                    covered.add(name)
        return len(covered) / len(model_names) if model_names else 0.0
