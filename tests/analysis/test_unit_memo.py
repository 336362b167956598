"""Per-unit class/cost memo on AnalyzedOp and FusedOp.

Each unit keeps its class and its cost at the AR's precision, so the
layer store is consulted once per unit per kind; costs at any other
precision still resolve through the store.  Cached ARs are shared by
threads, so the memo must also hold under concurrent profiles.
"""
import sys
import threading

from repro.analysis.cache import AnalysisCache
from repro.analysis.layerstore import LayerStore
from repro.analysis.oarep import OptimizedAnalyzeRepresentation
from repro.core.profiler import Profiler
from repro.ir import report_digest
from repro.ir.tensor import DataType
from repro.models.registry import build_model

PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330", "ov-sim": "xeon6330"}


class CountingStore(LayerStore):
    def __init__(self):
        super().__init__()
        self.calls = []

    def record(self, key, compute):
        self.calls.append(key)
        return super().record(key, compute)


def test_store_consulted_once_per_unit_per_kind():
    store = CountingStore()
    cache = AnalysisCache(layer_store=store)
    arep = cache.arep(build_model("resnet50"), DataType.FLOAT16)
    oar = OptimizedAnalyzeRepresentation(arep)
    fused = oar.set_fused_op(arep.ops[:3])
    units = [fused] + arep.ops[3:6]

    def ask_all():
        for unit in units:
            unit.op_class()
            unit.cost()
            unit.cost(DataType.FLOAT16)

    ask_all()
    # one class and one cost record per unit: the fused unit, its three
    # members (read by the fused class) and the three plain units
    assert len(store.calls) == 2 * 7
    ask_all()
    ask_all()
    assert len(store.calls) == 2 * 7
    # another precision is not memoized on the unit: every call asks
    store.calls.clear()
    for _ in range(2):
        assert fused.cost(DataType.FLOAT32) == \
            fused.compute_cost(DataType.FLOAT32)
    assert len(store.calls) == 2


def test_memo_without_store_matches_raw_computation():
    arep = AnalysisCache(layer_store=False).arep(build_model("vit-tiny"),
                                                 DataType.FLOAT16)
    for op in arep.ops:
        assert op.op_class() is op.compute_class()
        assert op.cost() == op.compute_cost(DataType.FLOAT16)
        assert op.cost() is op.cost()          # kept, not recomputed


def test_concurrent_cold_profiles_share_one_ar_safely():
    """More threads than cores build mapped entries over one cached AR
    at once; every report must equal the serial, uncached one."""
    graph = build_model("mobilenetv2-10")
    want = {b: report_digest(Profiler(b, s, "fp16", analysis_cache=False)
                             .profile(build_model("mobilenetv2-10")))
            for b, s in PLATFORMS.items()}
    cache = AnalysisCache()
    cache.arep(graph, DataType.FLOAT16)          # one AR for every thread
    jobs = sorted(PLATFORMS) * 3
    barrier = threading.Barrier(len(jobs))
    got = [None] * len(jobs)

    def run(i, backend):
        barrier.wait(timeout=60)
        report = Profiler(backend, PLATFORMS[backend], "fp16",
                          analysis_cache=cache).profile(graph)
        got[i] = (backend, report_digest(report))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i, b))
                   for i, b in enumerate(jobs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is not None for g in got)
    for backend, digest in got:
        assert digest == want[backend], backend
