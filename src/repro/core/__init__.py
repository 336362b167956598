"""PRoof core: profiler driver, roofline math, reports, viewer, CLI."""
from .report import EndToEnd, LayerProfile, MetricSource, ProfileReport
from .roofline import Roofline, RooflinePoint, roofline_for
from .profiler import Profiler, profile_model
from .dataviewer import (CLASS_COLORS, format_layer_table, format_report,
                         latency_histogram, render_roofline_svg)
from .peaktest import PeakResult, measure_peaks
from .htmlreport import render_html_report, save_html_report
from .sweep import BatchSweep, SweepPoint, sweep_batch_sizes
from .insights import Insight, Severity, analyze, format_insights
from .hierarchy import ModuleProfile, aggregate, format_modules
from .diff import ReportDiff, diff_reports, format_diff

__all__ = [
    "EndToEnd", "LayerProfile", "MetricSource", "ProfileReport",
    "Roofline", "RooflinePoint", "roofline_for",
    "Profiler", "profile_model",
    "CLASS_COLORS", "format_layer_table", "format_report",
    "latency_histogram", "render_roofline_svg",
    "PeakResult", "measure_peaks",
    "render_html_report", "save_html_report",
    "BatchSweep", "SweepPoint", "sweep_batch_sizes",
    "Insight", "Severity", "analyze", "format_insights",
    "ModuleProfile", "aggregate", "format_modules",
    "ReportDiff", "diff_reports", "format_diff",
]
