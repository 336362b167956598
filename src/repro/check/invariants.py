"""Cross-layer invariant checks over the analysis/backend/cache stack.

Each check validates one promise the framework's layers make to each
other (XSP's "levels must be mutually consistent"; the paper's §3.3
bijective mapping and Table-4 FLOP validation):

- **bijectivity** — backend layer mapping assigns every Analyze
  Representation op to exactly one backend layer (Figure 2);
- **cost additivity** — a fused group's FLOP equals the sum of its
  non-folded members' independently computed FLOPs, and its memory
  never exceeds the members' sum (boundary-tensor rule only removes
  traffic);
- **cache round-trip** — profiling through a warm
  :class:`~repro.analysis.cache.AnalysisCache` is digest-identical to a
  cold, cache-free run;
- **counting executor** — the instrumented executor's measured
  FLOP/byte totals match the analytical prediction within Table-4-style
  relative bounds;
- **partition conservation** — every ``repro.distribution`` strategy's
  per-device FLOP/byte totals sum back to the single-device profile
  (partitioning moves work, it never creates or destroys it).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.arep import AnalyzedOp, AnalyzeRepresentation
from ..analysis.cache import AnalysisCache
from ..analysis.oarep import FusedOp
from ..core.profiler import Profiler
from ..ir.fingerprint import report_digest
from ..ir.graph import Graph
from ..ir.shape_inference import infer_shapes
from ..ir.tensor import DataType
from .counting import CountingExecutor
from .fuzz import make_feeds

__all__ = ["InvariantResult", "check_mapping_bijectivity",
           "check_cost_additivity", "check_cache_roundtrip",
           "check_counting_executor", "check_partition_conservation",
           "run_invariants"]

#: Table-4 style relative bound for measured-vs-predicted FLOPs
FLOP_RTOL = 0.02
#: measured bytes share the Equation-1 policy, so the same bound holds
BYTES_RTOL = 0.02


@dataclass
class InvariantResult:
    """Outcome of one invariant check on one graph."""

    invariant: str
    graph: str
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{status}] {self.invariant} on {self.graph}{tail}"


def _profiler(backend: str, platform: str, precision: str,
              cache) -> Profiler:
    return Profiler(backend, platform, precision, analysis_cache=cache)


def check_mapping_bijectivity(graph: Graph, backend: str = "trt-sim",
                              platform: str = "a100",
                              precision: str = "fp16") -> InvariantResult:
    """Every AR op lands in exactly one mapped backend layer (§3.3)."""
    prof = _profiler(backend, platform, precision, AnalysisCache())
    entry = prof._mapped_entry(graph)
    expected = [op.name for op in entry.arep.ops]
    seen: Dict[str, int] = {}
    for layer in entry.mapped:
        for name in layer.member_names:
            seen[name] = seen.get(name, 0) + 1
    dupes = sorted(n for n, k in seen.items() if k > 1)
    missing = sorted(n for n in expected if n not in seen)
    phantom = sorted(n for n in seen if n not in set(expected))
    ok = not (dupes or missing or phantom)
    detail = "" if ok else (
        f"duplicated={dupes[:5]} missing={missing[:5]} phantom={phantom[:5]}")
    return InvariantResult("mapping-bijectivity", graph.name, ok, detail)


def check_cost_additivity(graph: Graph, backend: str = "trt-sim",
                          platform: str = "a100",
                          precision: str = "fp16") -> InvariantResult:
    """Fused FLOP = sum of non-folded members; fused memory <= members'."""
    prof = _profiler(backend, platform, precision, AnalysisCache())
    entry = prof._mapped_entry(graph)
    prec = prof.precision
    problems: List[str] = []
    total_unit_flop = 0.0
    folded_flop = 0.0
    for layer in entry.mapped:
        unit = layer.unit
        if isinstance(unit, FusedOp):
            member_flop = sum(m.cost(prec).flop for m in unit.members
                              if m.name not in unit.folded)
            member_mem = sum(m.cost(prec).memory_bytes for m in unit.members)
            cost = unit.cost(prec)
            if abs(cost.flop - member_flop) > 1e-6 * max(1.0, member_flop):
                problems.append(
                    f"{layer.name}: fused flop {cost.flop} != member sum "
                    f"{member_flop}")
            if cost.memory_bytes > member_mem * (1 + 1e-9):
                problems.append(
                    f"{layer.name}: fused memory {cost.memory_bytes} exceeds "
                    f"member sum {member_mem}")
            total_unit_flop += cost.flop
            folded_flop += sum(m.cost(prec).flop for m in unit.members
                               if m.name in unit.folded)
        elif isinstance(unit, AnalyzedOp):
            total_unit_flop += unit.cost(prec).flop
    ar_flop = entry.arep.total_cost(prec).flop
    if abs(total_unit_flop + folded_flop - ar_flop) \
            > 1e-6 * max(1.0, ar_flop):
        problems.append(
            f"unit flops {total_unit_flop} + folded {folded_flop} != "
            f"AR total {ar_flop}")
    return InvariantResult("cost-additivity", graph.name, not problems,
                           "; ".join(problems[:3]))


def check_cache_roundtrip(graph: Graph, backend: str = "trt-sim",
                          platform: str = "a100",
                          precision: str = "fp16") -> InvariantResult:
    """Warm-cache profiling is digest-identical to a cache-free run."""
    cache = AnalysisCache()
    warm = _profiler(backend, platform, precision, cache)
    first = report_digest(warm.profile(graph))
    second = report_digest(warm.profile(graph))       # served from cache
    cold_prof = _profiler(backend, platform, precision, False)
    cold = report_digest(cold_prof.profile(graph.copy()))
    problems = []
    if second != first:
        problems.append(f"cache hit changed digest {first[:12]} -> "
                        f"{second[:12]}")
    if cold != first:
        problems.append(f"cold run digest {cold[:12]} != cached "
                        f"{first[:12]}")
    if cache.stats()["structure"]["hits"] < 1:
        problems.append("second profile did not hit the structure tier")
    return InvariantResult("cache-roundtrip", graph.name, not problems,
                           "; ".join(problems))


def check_counting_executor(graph: Graph, rtol: float = FLOP_RTOL,
                            bytes_rtol: float = BYTES_RTOL,
                            seed: int = 0) -> InvariantResult:
    """Measured FLOP/bytes from real execution match `repro.analysis`."""
    g = graph.copy()
    infer_shapes(g)
    predicted = AnalyzeRepresentation(g, DataType.FLOAT32).total_cost()
    ce = CountingExecutor(g, seed=seed)
    ce.run(make_feeds(g, seed=seed))
    problems = []
    if ce.nodes_observed != g.num_nodes:
        problems.append(f"observed {ce.nodes_observed} nodes of "
                        f"{g.num_nodes}")
    flop_err = abs(ce.flop - predicted.flop) / max(1.0, predicted.flop)
    if flop_err > rtol:
        problems.append(f"flop off by {flop_err:.2%}: measured {ce.flop:.6g}"
                        f" vs predicted {predicted.flop:.6g}")
    measured_bytes = ce.memory_bytes
    predicted_bytes = predicted.memory_bytes
    bytes_err = abs(measured_bytes - predicted_bytes) \
        / max(1.0, predicted_bytes)
    if bytes_err > bytes_rtol:
        problems.append(
            f"bytes off by {bytes_err:.2%}: measured {measured_bytes:.6g} "
            f"vs predicted {predicted_bytes:.6g}")
    return InvariantResult("counting-executor", graph.name, not problems,
                           "; ".join(problems))


def check_partition_conservation(graph: Graph, backend: str = "trt-sim",
                                 platform: str = "a100",
                                 precision: str = "fp16",
                                 num_devices: int = 4) -> InvariantResult:
    """Every partitioning strategy conserves FLOP/read/write totals."""
    from ..distribution import partition_report
    prof = _profiler(backend, platform, precision, AnalysisCache())
    report = prof.profile(graph)
    base = (sum(l.flop for l in report.layers),
            sum(l.read_bytes for l in report.layers),
            sum(l.write_bytes for l in report.layers))
    problems: List[str] = []
    for strategy in ("pipeline", "tensor", "hybrid"):
        plan = partition_report(report, num_devices, strategy=strategy)
        for label, got, want in zip(("flop", "read", "write"),
                                    plan.totals(), base):
            if abs(got - want) > 1e-6 * max(1.0, want):
                problems.append(
                    f"{strategy}: device-summed {label} {got:.6g} != "
                    f"single-device {want:.6g}")
    return InvariantResult("partition-conservation", graph.name,
                           not problems, "; ".join(problems[:3]))


def run_invariants(graphs: Dict[str, Graph], backend: str = "trt-sim",
                   platform: str = "a100", precision: str = "fp16",
                   execute: bool = True,
                   ) -> List[InvariantResult]:
    """All invariant checks over a dict of named graphs.

    ``execute=False`` skips the counting executor (the only check that
    actually runs the model) for large graphs.
    """
    results: List[InvariantResult] = []
    for name, graph in graphs.items():
        if graph.name != name:
            graph = graph.copy()
            graph.name = name
        results.append(check_mapping_bijectivity(graph, backend, platform,
                                                 precision))
        results.append(check_cost_additivity(graph, backend, platform,
                                             precision))
        results.append(check_cache_roundtrip(graph, backend, platform,
                                             precision))
        results.append(check_partition_conservation(graph, backend,
                                                    platform, precision))
        if execute:
            results.append(check_counting_executor(graph))
    return results
