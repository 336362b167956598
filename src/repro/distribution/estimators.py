"""Closed-form distributed-inference estimators.

These are the fast analytical counterparts of the full partition +
schedule simulation in :mod:`repro.distribution.partition` /
:mod:`repro.distribution.schedule`: no timelines, just the steady-state
algebra.  They remain useful for sweeps (one multiply per
configuration) and as an analytic cross-check for the simulator — on a
uniform pipeline both must agree exactly.

Changed vs the seed implementation: the tensor-parallel ring all-reduce
now charges the link's fixed per-message latency on **every** of its
``2·(N−1)`` rounds (via :meth:`Interconnect.allreduce_seconds`) instead
of at most once — the seed closed form underestimated small-tensor
collectives by up to ``2·(N−1)×`` the link latency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.report import LayerProfile, ProfileReport
from .partition import (SHARDABLE_CLASSES, SHARDABLE_LOCAL_CLASSES,
                        balanced_cuts)
from .topology import Interconnect, NVLINK, PCIE_GEN4

__all__ = ["PipelineStage", "PipelineEstimate", "TensorParallelEstimate",
           "estimate_pipeline", "estimate_tensor_parallel"]


@dataclass
class PipelineStage:
    device: int
    layers: List[LayerProfile]
    compute_seconds: float
    #: bytes handed to the next stage (0 for the last)
    egress_bytes: float = 0.0
    transfer_seconds: float = 0.0

    @property
    def stage_seconds(self) -> float:
        return self.compute_seconds + self.transfer_seconds


@dataclass
class PipelineEstimate:
    """Steady-state pipeline execution of one model."""

    num_devices: int
    interconnect: Interconnect
    stages: List[PipelineStage]
    single_device_seconds: float

    @property
    def iteration_seconds(self) -> float:
        """Steady-state time per batch: the bottleneck stage."""
        return max(s.stage_seconds for s in self.stages)

    @property
    def fill_latency_seconds(self) -> float:
        """First-batch latency: the whole pipe must fill."""
        return sum(s.stage_seconds for s in self.stages)

    @property
    def throughput_speedup(self) -> float:
        return self.single_device_seconds / self.iteration_seconds

    @property
    def parallel_efficiency(self) -> float:
        return self.throughput_speedup / self.num_devices

    @property
    def bubble_fraction(self) -> float:
        """Idle share of device-time from stage imbalance + transfers."""
        busy = sum(s.compute_seconds for s in self.stages)
        total = self.iteration_seconds * self.num_devices
        return 1.0 - busy / total if total > 0 else 0.0


def _split_balanced(latencies: Sequence[float], n: int) -> List[int]:
    """Optimal contiguous split minimizing the bottleneck stage
    (kept under its historic name; now the exact DP from
    :func:`repro.distribution.partition.balanced_cuts`)."""
    return balanced_cuts(latencies, n)


def estimate_pipeline(report: ProfileReport, num_devices: int,
                      interconnect: Interconnect = NVLINK
                      ) -> PipelineEstimate:
    """Partition a profiled model into a balanced pipeline."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    layers = report.layers
    if not layers:
        raise ValueError("report has no layers")
    lats = [l.latency_seconds for l in layers]
    cuts = balanced_cuts(lats, num_devices)
    bounds = [0] + list(cuts) + [len(layers)]
    stages: List[PipelineStage] = []
    for d in range(num_devices):
        chunk = layers[bounds[d]:bounds[d + 1]]
        stage = PipelineStage(
            device=d,
            layers=chunk,
            compute_seconds=sum(l.latency_seconds for l in chunk),
        )
        stages.append(stage)
    # stage egress: the activation the next stage consumes ~ the last
    # layer's written bytes (a conservative single-tensor estimate)
    for d in range(num_devices - 1):
        chunk = stages[d].layers
        egress = chunk[-1].write_bytes if chunk else 0.0
        stages[d].egress_bytes = egress
        stages[d].transfer_seconds = interconnect.transfer_seconds(egress)
    return PipelineEstimate(
        num_devices=num_devices,
        interconnect=interconnect,
        stages=stages,
        single_device_seconds=report.end_to_end.latency_seconds,
    )


@dataclass
class TensorParallelEstimate:
    """Megatron-style sharding of the matrix layers."""

    num_devices: int
    interconnect: Interconnect
    per_device_seconds: float
    allreduce_seconds: float
    single_device_seconds: float
    sharded_layer_count: int
    replicated_seconds: float

    @property
    def iteration_seconds(self) -> float:
        return self.per_device_seconds + self.allreduce_seconds

    @property
    def latency_speedup(self) -> float:
        return self.single_device_seconds / self.iteration_seconds

    @property
    def parallel_efficiency(self) -> float:
        return self.latency_speedup / self.num_devices

    @property
    def communication_fraction(self) -> float:
        return self.allreduce_seconds / self.iteration_seconds \
            if self.iteration_seconds > 0 else 0.0


def estimate_tensor_parallel(report: ProfileReport, num_devices: int,
                             interconnect: Interconnect = NVLINK
                             ) -> TensorParallelEstimate:
    """Shard matrix layers N ways; non-matrix layers replicate."""
    if num_devices < 1:
        raise ValueError("need at least one device")
    sharded = 0.0
    replicated = 0.0
    allreduce = 0.0
    count = 0
    for l in report.layers:
        if l.op_class in SHARDABLE_CLASSES and num_devices > 1:
            sharded += l.latency_seconds / num_devices
            count += 1
            # Megatron pairing: the column-parallel half needs no
            # communication; the row-parallel half all-reduces its output
            if count % 2 == 0 and l.write_bytes:
                allreduce += interconnect.allreduce_seconds(
                    l.write_bytes, num_devices)
        elif l.op_class in SHARDABLE_LOCAL_CLASSES and l.kind == "execution" \
                and num_devices > 1:
            sharded += l.latency_seconds / num_devices
        else:
            # LayerNorm, embeddings, reformat copies replicate
            replicated += l.latency_seconds
    if num_devices > 1 and count % 2 == 1:
        # an unpaired trailing sharded layer still reduces
        last = next(l for l in reversed(report.layers)
                    if l.op_class in SHARDABLE_CLASSES)
        allreduce += interconnect.allreduce_seconds(last.write_bytes,
                                                    num_devices)
    return TensorParallelEstimate(
        num_devices=num_devices,
        interconnect=interconnect,
        per_device_seconds=sharded + replicated,
        allreduce_seconds=allreduce,
        single_device_seconds=report.end_to_end.latency_seconds,
        sharded_layer_count=count,
        replicated_seconds=replicated,
    )
