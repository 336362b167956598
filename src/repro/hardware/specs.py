"""Hardware platform specifications (paper Table 2).

Each :class:`HardwareSpec` captures what the roofline model needs —
peak FLOP/s per datatype (tensor-core and vector paths separately),
DRAM bandwidth, per-kernel launch overhead — plus the efficiency knobs
the latency simulator keys on.  Values come from vendor datasheets and
the paper's own measurements (e.g. the Raspberry Pi's ~5.5 GB/s
achievable AXI-bus bandwidth, §4.3).

Clock-domain scaling (``scaled``) supports the §4.6 Jetson hardware
tuning study: compute peaks scale with the GPU clock, bandwidth with
the memory clock, and an optional TPC power-gating mask scales the
number of active GPU partitions (the undocumented ``TPC_PG_MASK``
setting of Table 7).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from ..analysis.opdefs import OpClass
from ..ir.tensor import DataType

__all__ = ["HardwareSpec", "PLATFORMS", "platform", "platform_names",
           "spec_cache_key"]


#: default per-class peak *compute* efficiency on a well-tuned backend —
#: the fraction of the relevant peak a large kernel of this class reaches.
_DEFAULT_CLASS_EFF: Dict[OpClass, float] = {
    OpClass.MATMUL: 0.85,
    OpClass.CONV: 0.80,
    OpClass.POINTWISE_CONV: 0.75,
    OpClass.DEPTHWISE_CONV: 0.90,   # vs the *vector* peak (cannot use MMA)
    OpClass.ELEMENTWISE: 0.90,
    OpClass.REDUCTION: 0.60,
    OpClass.NORMALIZATION: 0.60,
    OpClass.SOFTMAX: 0.60,
    OpClass.DATA_MOVEMENT: 1.0,
    OpClass.EMBEDDING: 1.0,
    OpClass.ZERO_COST: 1.0,
}

#: default per-class *memory* efficiency — achieved fraction of DRAM
#: bandwidth for this access pattern.
_DEFAULT_MEM_EFF: Dict[OpClass, float] = {
    OpClass.MATMUL: 0.85,
    OpClass.CONV: 0.85,
    OpClass.POINTWISE_CONV: 0.85,
    OpClass.DEPTHWISE_CONV: 0.75,
    # perfectly streaming kernels: the spec-level stream_efficiency is
    # the only haircut (peak-test copies must reach the achievable BW)
    OpClass.ELEMENTWISE: 1.0,
    OpClass.REDUCTION: 0.70,
    OpClass.NORMALIZATION: 0.75,
    OpClass.SOFTMAX: 0.70,
    OpClass.DATA_MOVEMENT: 0.45,    # transposes / strided copies
    OpClass.EMBEDDING: 0.35,        # random gather
    OpClass.ZERO_COST: 1.0,
}


@dataclass(frozen=True)
class HardwareSpec:
    """A deployment platform for the latency / counter / power simulators."""

    name: str
    scenario: str                            # Table 2 "Scenarios" column
    #: peak FLOP/s on the matrix path (tensor cores / AMX / NPU MACs)
    peak_matrix_flops: Mapping[DataType, float]
    #: peak FLOP/s on the plain SIMD/vector path
    peak_vector_flops: Mapping[DataType, float]
    #: nominal DRAM bandwidth, bytes/s
    dram_bandwidth: float
    #: fraction of nominal bandwidth a perfect streaming kernel reaches
    #: (the Pi's AXI limit makes this 0.43 there, §4.3)
    stream_efficiency: float = 0.85
    #: fixed host-side cost per backend layer, seconds
    kernel_launch_overhead: float = 4e-6
    #: on-chip SRAM (L2 / LLC) in bytes — fused intermediates must fit
    sram_bytes: float = 4e7
    #: FLOP of work at which a compute kernel reaches ~50% of its
    #: efficiency cap (utilization ramp; small kernels underutilize)
    compute_saturation_flop: float = 2e8
    #: bytes of traffic at which a memory kernel reaches ~50% efficiency
    memory_saturation_bytes: float = 2e6
    #: reference clocks the peaks are quoted at (MHz); 0 = not tunable
    compute_clock_mhz: float = 0.0
    memory_clock_mhz: float = 0.0
    #: issue-rate ceiling on copy bandwidth (bytes/s at reference compute
    #: clock; 0 = unlimited).  Streaming kernels are issued by the SMs,
    #: so lowering the GPU clock also caps attainable DRAM bandwidth —
    #: the paper's Table 6 rows #3/#4 show exactly this on the Orin.
    issue_bandwidth: float = 0.0
    #: active compute partitions (TPCs) out of ``total_partitions``
    active_partitions: int = 8
    total_partitions: int = 8
    class_efficiency: Mapping[OpClass, float] = field(
        default_factory=lambda: dict(_DEFAULT_CLASS_EFF))
    memory_efficiency: Mapping[OpClass, float] = field(
        default_factory=lambda: dict(_DEFAULT_MEM_EFF))
    #: matrix-path tile granularity (elements) used by the counter
    #: simulator for hardware-FLOP padding, (M, N, K)
    mma_tile: Tuple[int, int, int] = (64, 64, 32)
    #: power model coefficients (see repro.hardware.power); zeros for
    #: platforms where the paper does not study power
    power_idle_w: float = 0.0
    power_per_compute_mhz: float = 0.0
    power_per_memory_mhz: float = 0.0
    power_cpu_cluster_w: float = 0.0
    #: default device-to-device link for multi-device partitioning —
    #: a name resolvable by ``repro.distribution.topology.link_by_name``
    #: (``proof partition --link auto`` picks this)
    interconnect: str = "pcie-gen4-x16"

    # ------------------------------------------------------------------
    def matrix_peak(self, dtype: DataType) -> float:
        """Matrix-unit peak for a dtype, falling back to the vector path."""
        if dtype is DataType.UINT8:
            # unsigned 8-bit integers execute on the signed int8 path
            # (DP4A/IMMA units take either signedness at the same rate)
            dtype = DataType.INT8
        peak = self.peak_matrix_flops.get(dtype, 0.0)
        return peak if peak > 0 else self.vector_peak(dtype)

    def vector_peak(self, dtype: DataType) -> float:
        if dtype is DataType.UINT8:
            dtype = DataType.INT8
        peak = self.peak_vector_flops.get(dtype, 0.0)
        if peak > 0:
            return peak
        # fp16 without native vector fp16 executes at fp32 rate, etc.
        fallback = {
            DataType.FLOAT16: DataType.FLOAT32,
            DataType.BFLOAT16: DataType.FLOAT32,
            DataType.INT8: DataType.FLOAT32,
        }.get(dtype)
        if fallback is not None:
            return self.peak_vector_flops.get(fallback, 0.0)
        return 0.0

    def peak_flops(self, dtype: DataType) -> float:
        """The headline roofline ceiling: best compute path for a dtype."""
        return max(self.matrix_peak(dtype), self.vector_peak(dtype))

    @property
    def achievable_bandwidth(self) -> float:
        return self.dram_bandwidth * self.stream_efficiency

    def ridge_intensity(self, dtype: DataType) -> float:
        """Arithmetic intensity of the roofline ridge point (FLOP/byte)."""
        return self.peak_flops(dtype) / self.achievable_bandwidth

    @property
    def is_clock_tunable(self) -> bool:
        return self.compute_clock_mhz > 0 and self.memory_clock_mhz > 0

    def scaled(
        self,
        compute_clock_mhz: Optional[float] = None,
        memory_clock_mhz: Optional[float] = None,
        active_partitions: Optional[int] = None,
    ) -> "HardwareSpec":
        """A spec with clocks (and TPC mask) changed — §4.6 nvpmodel."""
        if not self.is_clock_tunable:
            raise ValueError(f"platform {self.name!r} has fixed clocks")
        cc = compute_clock_mhz if compute_clock_mhz is not None else self.compute_clock_mhz
        mc = memory_clock_mhz if memory_clock_mhz is not None else self.memory_clock_mhz
        parts = active_partitions if active_partitions is not None else self.active_partitions
        if cc <= 0 or mc <= 0:
            raise ValueError("clock speeds must be positive")
        if not (0 < parts <= self.total_partitions):
            raise ValueError(f"active_partitions must be in 1..{self.total_partitions}")
        comp_scale = (cc / self.compute_clock_mhz) * (parts / self.active_partitions)
        mem_scale = mc / self.memory_clock_mhz
        return replace(
            self,
            name=f"{self.name}@{cc:.0f}/{mc:.0f}",
            peak_matrix_flops={k: v * comp_scale for k, v in self.peak_matrix_flops.items()},
            peak_vector_flops={k: v * comp_scale for k, v in self.peak_vector_flops.items()},
            dram_bandwidth=self.dram_bandwidth * mem_scale,
            issue_bandwidth=self.issue_bandwidth * comp_scale,
            compute_clock_mhz=cc,
            memory_clock_mhz=mc,
            active_partitions=parts,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; enum-keyed mappings become value-keyed."""
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if f.name in ("peak_matrix_flops", "peak_vector_flops",
                          "class_efficiency", "memory_efficiency"):
                out[f.name] = {k.value: v for k, v in val.items()}
            elif f.name == "mma_tile":
                out[f.name] = list(val)
            else:
                out[f.name] = val
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HardwareSpec":
        """Inverse of :meth:`to_dict` (exact round trip)."""
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs: Dict[str, object] = {
            k: v for k, v in data.items() if k in known}
        for key in ("peak_matrix_flops", "peak_vector_flops"):
            if key in kwargs:
                kwargs[key] = {DataType(k): float(v)
                               for k, v in kwargs[key].items()}
        for key in ("class_efficiency", "memory_efficiency"):
            if key in kwargs:
                kwargs[key] = {OpClass(k): float(v)
                               for k, v in kwargs[key].items()}
        if "mma_tile" in kwargs:
            kwargs["mma_tile"] = tuple(kwargs["mma_tile"])
        return cls(**kwargs)


def _gpu_eff(**overrides: float) -> Dict[OpClass, float]:
    eff = dict(_DEFAULT_CLASS_EFF)
    for key, val in overrides.items():
        eff[OpClass[key.upper()]] = val
    return eff


def _mem_eff(**overrides: float) -> Dict[OpClass, float]:
    eff = dict(_DEFAULT_MEM_EFF)
    for key, val in overrides.items():
        eff[OpClass[key.upper()]] = val
    return eff


PLATFORMS: Dict[str, HardwareSpec] = {}


def _add(spec: HardwareSpec) -> HardwareSpec:
    PLATFORMS[spec.name] = spec
    return spec


F32, F16, I8 = DataType.FLOAT32, DataType.FLOAT16, DataType.INT8

# --- Data center GPU -------------------------------------------------------
_add(HardwareSpec(
    name="a100",
    scenario="Data center GPU",
    peak_matrix_flops={F16: 312e12, F32: 156e12, I8: 624e12},  # TF32 path for fp32
    peak_vector_flops={F16: 78e12, F32: 19.5e12, I8: 39e12},
    dram_bandwidth=1555e9,
    stream_efficiency=0.88,
    kernel_launch_overhead=3.0e-6,
    sram_bytes=40e6,
    compute_saturation_flop=6e8,
    memory_saturation_bytes=8e6,
    mma_tile=(64, 64, 32),
    interconnect="nvlink3",     # SXM boards ship on NVLink meshes
))

# --- Desktop GPU -----------------------------------------------------------
_add(HardwareSpec(
    name="rtx4090",
    scenario="Desktop GPU",
    peak_matrix_flops={F16: 330e12, F32: 82.6e12, I8: 660e12},
    peak_vector_flops={F16: 82.6e12, F32: 82.6e12, I8: 82.6e12},
    dram_bandwidth=1008e9,
    stream_efficiency=0.90,
    kernel_launch_overhead=2.5e-6,
    sram_bytes=72e6,
    compute_saturation_flop=5e8,
    memory_saturation_bytes=6e6,
    mma_tile=(64, 64, 32),
))

# --- Data center CPU -------------------------------------------------------
_add(HardwareSpec(
    name="xeon6330",
    scenario="Datacenter CPU",
    # 28 cores x 2.0 GHz x 2 AVX-512 FMA x 16 lanes x 2 FLOP; VNNI for int8
    peak_matrix_flops={},
    peak_vector_flops={F32: 3.58e12, F16: 3.58e12, I8: 14.3e12},
    dram_bandwidth=187.7e9,   # 8ch DDR4-2933
    stream_efficiency=0.70,
    kernel_launch_overhead=8e-6,
    sram_bytes=42e6,
    compute_saturation_flop=1e8,
    memory_saturation_bytes=4e6,
    class_efficiency=_gpu_eff(matmul=0.75, conv=0.70, pointwise_conv=0.65,
                              depthwise_conv=0.50),
    memory_efficiency=_mem_eff(data_movement=0.55),
    mma_tile=(16, 16, 16),
))

# --- Edge GPUs (Jetson) ----------------------------------------------------
_add(HardwareSpec(
    name="xavier-nx",
    scenario="Edge GPU",
    # 384 CUDA cores + 48 tensor cores @ 1100 MHz
    peak_matrix_flops={F16: 9.8e12, I8: 19.6e12},
    peak_vector_flops={F32: 1.69e12, F16: 3.38e12},
    dram_bandwidth=59.7e9,
    stream_efficiency=0.80,
    kernel_launch_overhead=9e-6,
    sram_bytes=4e6,
    compute_saturation_flop=8e7,
    memory_saturation_bytes=1.5e6,
    compute_clock_mhz=1100.0,
    memory_clock_mhz=1866.0,
    issue_bandwidth=56e9,
    active_partitions=4,
    total_partitions=4,
    class_efficiency=_gpu_eff(matmul=0.75, conv=0.20, pointwise_conv=0.18,
                              depthwise_conv=0.24),
    mma_tile=(32, 32, 16),
    power_idle_w=0.9, power_per_compute_mhz=0.0105,
    power_per_memory_mhz=0.0021, power_cpu_cluster_w=0.84,
    interconnect="pcie-gen3-x8",
))

_add(HardwareSpec(
    name="orin-nx",
    scenario="Edge GPU",
    # 1024 CUDA cores + 32 Ampere tensor cores @ 918 MHz.  The paper's
    # peak test (Table 6) reaches 13.6 TFLOP/s and 87.9 GB/s at max clocks.
    peak_matrix_flops={F16: 17.0e12, I8: 34.0e12},
    peak_vector_flops={F32: 1.88e12, F16: 3.76e12},
    dram_bandwidth=102.4e9,
    stream_efficiency=0.86,
    kernel_launch_overhead=7e-6,
    sram_bytes=4e6,
    compute_saturation_flop=1e8,
    memory_saturation_bytes=2e6,
    compute_clock_mhz=918.0,
    memory_clock_mhz=3199.0,
    issue_bandwidth=96.5e9,
    active_partitions=4,
    total_partitions=4,
    class_efficiency=_gpu_eff(matmul=0.80, conv=0.20, pointwise_conv=0.18,
                              depthwise_conv=0.24),
    mma_tile=(32, 32, 16),
    power_idle_w=1.17, power_per_compute_mhz=0.02406,
    power_per_memory_mhz=0.00281, power_cpu_cluster_w=0.84,
    interconnect="pcie-gen3-x8",
))

# --- Edge CPU --------------------------------------------------------------
_add(HardwareSpec(
    name="rpi4b",
    scenario="Edge CPU",
    # 4x Cortex-A72 @ 1.5 GHz, one 128-bit NEON FMA pipe each.
    peak_matrix_flops={},
    peak_vector_flops={F32: 48e9, I8: 96e9},
    dram_bandwidth=12.8e9,
    # BCM2711 AXI bus limit: ~5.5 GB/s achievable (paper §4.3)
    stream_efficiency=0.43,
    kernel_launch_overhead=2e-5,
    sram_bytes=1e6,
    compute_saturation_flop=5e6,
    memory_saturation_bytes=2e5,
    class_efficiency=_gpu_eff(matmul=0.70, conv=0.65, pointwise_conv=0.60,
                              depthwise_conv=0.45),
    memory_efficiency=_mem_eff(data_movement=0.50),
    mma_tile=(8, 8, 8),
    interconnect="gige",        # Pi clusters federate over ethernet
))

# --- Mobile NPU ------------------------------------------------------------
_add(HardwareSpec(
    name="npu3720",
    scenario="Mobile NPU",
    # Intel AI Boost (Meteor Lake): 2048 fp16 MACs / 4096 int8 MACs @ 1.4 GHz
    peak_matrix_flops={F16: 5.7e12, I8: 11.5e12},
    peak_vector_flops={F32: 0.36e12, F16: 0.72e12},
    dram_bandwidth=120e9,     # shared LPDDR5x-7467
    stream_efficiency=0.35,   # NPU DMA engines reach a fraction of it
    kernel_launch_overhead=3e-5,
    sram_bytes=4e6,
    compute_saturation_flop=3e8,
    memory_saturation_bytes=4e6,
    # The paper observes performance "significantly deviated from its
    # theoretical value" — immature runtime, low efficiency caps.
    class_efficiency=_gpu_eff(matmul=0.40, conv=0.45, pointwise_conv=0.35,
                              depthwise_conv=0.50, elementwise=0.5),
    memory_efficiency=_mem_eff(data_movement=0.30),
    mma_tile=(16, 16, 64),
))


def platform(name: str) -> HardwareSpec:
    """Look up a platform by name (see :func:`platform_names`)."""
    key = name.strip().lower()
    if key not in PLATFORMS:
        raise KeyError(
            f"unknown platform {name!r}; available: {', '.join(PLATFORMS)}")
    return PLATFORMS[key]


def platform_names() -> Tuple[str, ...]:
    return tuple(PLATFORMS)


def spec_cache_key(spec: HardwareSpec) -> str:
    """Deterministic cache-key string covering every field of a spec.

    Cache tiers keyed by hardware (the layer store's ``structure`` tier
    and its latency records) use this so
    two specs sharing a name but differing in any parameter (e.g. a
    clock-tuned Jetson) never alias.
    """
    return repr([(f.name, repr(getattr(spec, f.name)))
                 for f in dataclasses.fields(spec)])
