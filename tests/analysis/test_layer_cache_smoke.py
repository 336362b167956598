"""Layer-cache smoke: the cross-model layer tier and the structure tier.

A warm cross-model pass through a shared :class:`LayerStore` must
re-read more than 80% of its layer records, and a five-precision sweep
must compile and map once.  Shared records may change *when* numbers
are computed, never *what* they are: store-warm and assembled profiles
are ``report_digest``-identical to cold ones.  The checks count, they
do not time, so they hold on shared runners.
"""
import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.layerstore import LayerStore
from repro.core.profiler import Profiler
from repro.core.sweep import sweep_batch_sizes
from repro.ir import report_digest
from repro.models.registry import MODEL_ZOO, build_model

FLOOR = 0.80
ZOO = ["mobilenetv2-05", "shufflenetv2-10", "efficientnet-b0"]
SWEEP_MODEL = "shufflenetv2-10"
PRECISIONS = ("fp32", "fp16", "bf16", "int8", "uint8")
#: swin keeps the native 224 input its patch merging needs
REDUCED = {"distilbert": dict(seq_len=32), "sd-unet": dict(latent_size=16),
           "swin-tiny": {}, "swin-small": {}, "swin-base": {}}


def zoo_pass(store):
    before = store.stats()
    for key in ZOO:
        graph = build_model(key, batch_size=1, image_size=64)
        Profiler("trt-sim", "a100",
                 analysis_cache=AnalysisCache(
                     layer_store=store)).profile(graph)
    after = store.stats()
    return {tier: {kind: after[tier][kind] - before[tier][kind]
                   for kind in ("hits", "misses")}
            for tier in store.TIERS}


def test_warm_zoo_pass_rereads_layer_records():
    # with no donor structures every profile compiles and maps, so the
    # warm pass measures the layer tier alone
    store = LayerStore(max_structures=0)
    zoo_pass(store)                  # cold: populates the store
    layer = zoo_pass(store)["layer"]
    warm = layer["hits"] / (layer["hits"] + layer["misses"])
    assert warm > FLOOR, \
        f"warm layer-tier hit rate {warm:.1%} <= {FLOOR:.0%} floor"


def test_warm_zoo_pass_reuses_each_structure_whole():
    store = LayerStore()
    cold = zoo_pass(store)
    assert cold["structure"] == {"hits": 0, "misses": len(ZOO)}
    warm = zoo_pass(store)
    # each donor serves its exact repeat as is: no record is read
    assert warm["structure"] == {"hits": len(ZOO), "misses": 0}
    assert warm["layer"] == {"hits": 0, "misses": 0}


@pytest.mark.parametrize("key", sorted(MODEL_ZOO))
def test_store_warm_profile_is_digest_identical(key):
    graph = build_model(key, batch_size=1,
                        **REDUCED.get(key, dict(image_size=64)))
    cold = report_digest(Profiler("trt-sim", "a100",
                                  analysis_cache=False).profile(graph))
    store = LayerStore()
    for _ in range(2):                 # the second pass runs store-hot
        warm = Profiler("trt-sim", "a100", analysis_cache=AnalysisCache(
            layer_store=store)).profile(graph)
        assert report_digest(warm) == cold


def test_assembled_precisions_are_digest_identical():
    graph = build_model(SWEEP_MODEL, batch_size=1, image_size=64)
    cache = AnalysisCache()
    for precision in PRECISIONS:
        warm = Profiler("trt-sim", "a100", precision,
                        analysis_cache=cache).profile(graph)
        cold = Profiler("trt-sim", "a100", precision,
                        analysis_cache=False).profile(graph)
        assert report_digest(warm) == report_digest(cold), precision
    assert cache.stats()["structure"]["hits"] == len(PRECISIONS) - 1


def test_precision_sweep_compiles_and_maps_once():
    # why a five-precision sweep costs about one cold point: siblings
    # assemble from the first point's structure instead of compiling
    store = LayerStore()

    def sweep():
        return sweep_batch_sizes(
            lambda bs: build_model(SWEEP_MODEL, batch_size=bs,
                                   image_size=64),
            "trt-sim", "a100", batch_sizes=[1], precisions=PRECISIONS,
            analysis_cache=AnalysisCache(layer_store=store)).cache_stats

    first = sweep()["structure"]
    assert (first["misses"], first["hits"]) == (1, len(PRECISIONS) - 1)
    # a repeat through a fresh cache re-reads the shared store
    assert sweep()["layer"]["hit_rate"] > FLOOR
