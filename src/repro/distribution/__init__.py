"""``repro.distribution`` — multi-device partitioned-execution profiling.

The paper's §5 names distributed inference as PRoof's next adaptation;
this subsystem is that adaptation as a first-class profiling workload:

1. :mod:`~repro.distribution.topology` — interconnect links and
   ring / fully-connected / host-bridged device topologies with
   per-hop latency and shared-link contention;
2. :mod:`~repro.distribution.partition` — pipeline / tensor / hybrid
   strategies turning one single-device profile into per-device
   sub-programs plus explicit transfer and collective ops (work is
   conserved exactly — ``repro.check`` enforces it);
3. :mod:`~repro.distribution.schedule` — a micro-batch schedule
   simulator producing per-device compute/comm/idle timelines;
4. :mod:`~repro.distribution.analysis` — per-device + aggregate
   rooflines and per-layer compute/memory/communication-bound
   classification (:class:`DistributionReport`);
5. :mod:`~repro.distribution.charts` — timeline Gantt and device
   roofline SVG/HTML renderers for the data-viewer;
6. :mod:`~repro.distribution.estimators` — the fast closed forms.

Entry points: :func:`profile_partitioned` (one call from a
single-device :class:`~repro.core.report.ProfileReport` to a
:class:`DistributionReport`) and the ``proof partition`` CLI.
"""
from .analysis import (BOUND_COMMUNICATION, BOUND_COMPUTE, BOUND_MEMORY,
                       DeviceProfile, DistributionReport, PartitionedLayer,
                       analyze_partition, default_link, profile_partitioned)
from .charts import (BOUND_COLORS, format_distribution_report,
                     format_timeline_text, render_device_rooflines_svg,
                     render_distribution_html, render_timeline_svg)
from .estimators import (PipelineEstimate, PipelineStage,
                         TensorParallelEstimate, estimate_pipeline,
                         estimate_tensor_parallel)
from .partition import (DeviceLayer, DevicePartition, PartitionPlan,
                        STRATEGIES, TransferOp, balanced_cuts,
                        partition_hybrid, partition_pipeline,
                        partition_report, partition_tensor)
from .schedule import (DeviceTimeline, ScheduleResult, Segment, simulate)
from .topology import (GIGE, Interconnect, LINKS, NVLINK, PCIE_GEN3,
                       PCIE_GEN4, Topology, link_by_name, link_names,
                       make_topology)

__all__ = [
    # topology
    "Interconnect", "Topology", "make_topology", "link_by_name",
    "link_names", "LINKS", "NVLINK", "PCIE_GEN4", "PCIE_GEN3", "GIGE",
    # partition
    "TransferOp", "DeviceLayer", "DevicePartition", "PartitionPlan",
    "STRATEGIES", "partition_report", "partition_pipeline",
    "partition_tensor", "partition_hybrid", "balanced_cuts",
    # schedule
    "Segment", "DeviceTimeline", "ScheduleResult", "simulate",
    # analysis
    "DeviceProfile", "PartitionedLayer", "DistributionReport",
    "analyze_partition", "profile_partitioned", "default_link",
    "BOUND_COMPUTE", "BOUND_MEMORY", "BOUND_COMMUNICATION",
    # charts
    "BOUND_COLORS", "format_distribution_report", "format_timeline_text",
    "render_device_rooflines_svg", "render_distribution_html",
    "render_timeline_svg",
    # estimators
    "PipelineStage", "PipelineEstimate", "TensorParallelEstimate",
    "estimate_pipeline", "estimate_tensor_parallel",
]
