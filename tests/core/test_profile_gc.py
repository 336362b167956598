"""A cold profile frees its own objects by reference counting.

Analysis units used to hold their representation (``AnalyzedOp`` the
AR, ``FusedOp`` the OAR), and an AR held its layer store, whose
structure tier holds finished entries and so their ARs: every profile
left a few thousand objects in reference cycles for the cyclic garbage
collector.  Units now hold a per-AR context that references no unit and
reaches the store weakly, so nothing a profile builds needs the cyclic
collector.  Units must keep working after their representation is
gone: the profiler's assemble path re-times a donor's truth units, and
``backend.compile`` without an AR drops its own.

A request's graph is freed by reference counting too: every cache tier
refers to the one graph held per fingerprint, never to the request's.
So is an assembled entry: the cache keeps only the donor it was
assembled from.
"""
import gc
import weakref

import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.cache import AnalysisCache
from repro.analysis.layerstore import LayerStore
from repro.backends import backend_by_name
from repro.core.profiler import Profiler
from repro.hardware.specs import platform
from repro.ir.tensor import DataType
from repro.models.registry import build_model

PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330", "ov-sim": "xeon6330"}
MODEL = "mobilenetv2-10"


def cached(backend):
    Profiler(backend, PLATFORMS[backend],
             analysis_cache=AnalysisCache()).profile(build_model(MODEL))


def uncached(backend):
    Profiler(backend, PLATFORMS[backend],
             analysis_cache=False).profile(build_model(MODEL))


def assembled(backend):
    graph = build_model(MODEL)
    cache = AnalysisCache()
    for precision in ("fp32", "fp16"):
        Profiler(backend, PLATFORMS[backend], precision,
                 analysis_cache=cache).profile(graph)
    # the second precision re-timed the first one's truth units
    assert cache.stats()["structure"]["hits"] == 1


@pytest.mark.parametrize("backend", sorted(PLATFORMS))
@pytest.mark.parametrize("run", [cached, uncached, assembled])
def test_cold_profile_leaves_no_cyclic_garbage(run, backend):
    run(backend)                 # warm imports and process-wide state
    gc.collect()
    gc.disable()
    try:
        run(backend)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("backend, precision", [
    ("trt-sim", "fp32"),    # the structure donor assembles the entry
    ("ort-sim", "fp16"),    # the AR hits, compile + mapping build it
])
def test_sibling_request_graph_is_freed_by_refcount(backend, precision):
    """A cache that already holds the model keeps none of a sibling
    build's graph once its report is returned."""
    cache = AnalysisCache()
    Profiler("trt-sim", PLATFORMS["trt-sim"], "fp16",
             analysis_cache=cache).profile(build_model(MODEL))
    gc.collect()
    gc.disable()
    try:
        graph = build_model(MODEL)
        ref = weakref.ref(graph)
        report = Profiler(backend, PLATFORMS[backend], precision,
                          analysis_cache=cache).profile(graph)
        assert report.layers
        del graph
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", sorted(PLATFORMS))
def test_assembled_entry_is_freed_by_refcount(backend):
    cache = AnalysisCache()
    graph = build_model(MODEL)
    Profiler(backend, PLATFORMS[backend], "fp16",
             analysis_cache=cache).profile(graph)
    gc.collect()
    gc.disable()
    try:
        entry = Profiler(backend, PLATFORMS[backend], "fp32",
                         analysis_cache=cache)._mapped_entry(graph)
        assert cache.stats()["structure"]["hits"] == 1
        ref = weakref.ref(entry)
        del entry
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", sorted(PLATFORMS))
def test_truth_units_answer_after_compile_returns(backend):
    """``compile`` without an AR builds one and drops it; its truth
    units still answer, with the records a kept AR gives."""
    graph = build_model(MODEL)
    spec = platform(PLATFORMS[backend])
    compile_ = backend_by_name(backend).compile

    def records(model):
        return [(u.layer_fingerprint(), u.cost(), u.cost(DataType.FLOAT32),
                 u.op_class())
                for u in model.truth_units]

    arep = AnalyzeRepresentation(graph, DataType.FLOAT16)
    kept = records(compile_(graph, spec, DataType.FLOAT16, arep=arep))
    dropped = records(compile_(graph, spec, DataType.FLOAT16))
    assert dropped and dropped == kept


def test_units_compute_directly_once_the_store_is_gone():
    """The AR reaches its layer store weakly; without it, records are
    computed directly and equal the stored ones."""
    graph = build_model(MODEL)
    store = LayerStore()
    arep = AnalyzeRepresentation(graph, DataType.FLOAT16)
    arep.layer_store = store
    stored = [(op.cost(DataType.FLOAT32), op.op_class()) for op in arep]
    assert len(store) > 0
    del store
    assert arep.layer_store is None
    direct = [(op.cost(DataType.FLOAT32), op.op_class()) for op in arep]
    assert direct == stored
