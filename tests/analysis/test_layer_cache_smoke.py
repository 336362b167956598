"""Layer-cache smoke: the cross-model layer tier and its BENCH section.

A warm cross-model pass through a shared :class:`LayerStore` must
re-read more than 80% of its layer records.  The check counts records,
not seconds, so it holds the real acceptance floor even on shared
runners.  The committed ``layer_cache`` section of ``BENCH_plan.json``
(written by ``benchmarks/test_sweep_redundancy.py``) must keep
publishing numbers above its floors.  CI runs this file as one step.
"""
import json
from pathlib import Path

from repro.analysis.cache import AnalysisCache
from repro.analysis.layerstore import LayerStore
from repro.core.profiler import Profiler
from repro.models.registry import build_model

FLOOR = 0.80
ZOO = ["mobilenetv2-05", "shufflenetv2-10", "efficientnet-b0"]
BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_plan.json"


def zoo_pass(store):
    before = store.stats()["layer"]
    for key in ZOO:
        graph = build_model(key, batch_size=1, image_size=64)
        Profiler("trt-sim", "a100",
                 analysis_cache=AnalysisCache(
                     layer_store=store)).profile(graph)
    after = store.stats()["layer"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses)


def test_warm_zoo_pass_rereads_layer_records():
    store = LayerStore()
    zoo_pass(store)                  # cold: populates the store
    warm = zoo_pass(store)
    assert warm > FLOOR, \
        f"warm layer-tier hit rate {warm:.1%} <= {FLOOR:.0%} floor"


def test_committed_layer_cache_section_meets_its_floors():
    doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    assert "layer_cache" in doc, \
        f"BENCH_plan.json lost its layer_cache section: {sorted(doc)}"
    sec = doc["layer_cache"]
    for key in ("layer_hit_floor", "sweep_ratio_ceiling",
                "zoo", "precision_sweep"):
        assert key in sec, \
            f"layer_cache section missing {key!r}: {sorted(sec)}"
    rate = sec["zoo"]["warm_layer_hit_rate"]
    ratio = sec["precision_sweep"]["ratio_vs_cold_point"]
    assert rate > sec["layer_hit_floor"], \
        f"committed warm hit rate {rate} <= {sec['layer_hit_floor']}"
    assert ratio <= sec["sweep_ratio_ceiling"], \
        f"committed sweep ratio {ratio}x > {sec['sweep_ratio_ceiling']}x"
