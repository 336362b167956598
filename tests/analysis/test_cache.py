"""AnalysisCache: tier behavior, digest-identity, eviction, sharing."""
import threading

import numpy as np

from repro.analysis.cache import AnalysisCache, shared_analysis_cache
from repro.core.profiler import Profiler, _graph_batch_size
from repro.ir.builder import GraphBuilder
from repro.ir.fingerprint import graph_fingerprint, report_digest
from repro.ir.graph import Graph
from repro.ir.serialization import from_json, to_json
from repro.ir.tensor import DataType, TensorInfo
from repro.models import shufflenet_v2
from repro.obs.metrics import default_registry


#: four precisions, so the arep tier gets four distinct keys per graph
PRECISIONS = (DataType.FLOAT32, DataType.FLOAT16, DataType.BFLOAT16,
              DataType.INT8)


def small_graph(image_size=32):
    return shufflenet_v2(0.5, batch_size=1, image_size=image_size)


class TestTiers:
    def test_shapes_tier_shares_value_info_across_copies(self):
        cache = AnalysisCache()
        g1 = small_graph()
        cache.ensure_shapes(g1)
        # a structurally identical graph without value_info hits the tier
        g2 = from_json(to_json(g1))
        g2.value_info = {}
        cache.ensure_shapes(g2)
        assert cache.stats()["shapes"]["hits"] == 1
        assert set(g2.value_info) == set(g1.value_info)

    def test_shapes_tier_counts_every_lookup(self):
        """The already-inferred fast path must still record hit/miss.

        Profiler graphs usually arrive with ``value_info`` filled, so a
        lookup-accounting hole on that path made the shapes tier report
        0/0 forever — the precision-sweep benchmark then showed dead
        tiers that were actually doing all the work.
        """
        cache = AnalysisCache()
        g = small_graph()           # builder output has value_info set
        assert g.value_info
        cache.ensure_shapes(g)      # seeds the tier: one miss
        assert cache.stats()["shapes"] == {"hits": 0, "misses": 1,
                                           "evictions": 0}
        cache.ensure_shapes(g)      # present now: one hit
        g2 = from_json(to_json(g))  # sibling with value_info intact
        cache.ensure_shapes(g2)
        assert cache.stats()["shapes"] == {"hits": 2, "misses": 1,
                                           "evictions": 0}

    def test_arep_memoized_per_precision(self):
        cache = AnalysisCache()
        g = small_graph()
        a1 = cache.arep(g, DataType.FLOAT16)
        a2 = cache.arep(g, DataType.FLOAT16)
        a3 = cache.arep(g, DataType.FLOAT32)
        assert a1 is a2
        assert a1 is not a3
        assert cache.stats()["arep"] == {"hits": 1, "misses": 2,
                                         "evictions": 0}

    def test_lru_eviction(self):
        cache = AnalysisCache(max_entries=2)
        g = small_graph()
        areps = [cache.arep(g, p) for p in PRECISIONS]
        assert cache.stats()["arep"] == {"hits": 0, "misses": 4,
                                         "evictions": 2}
        assert len(cache) == 3      # one shapes entry, two areps
        # oldest entries were evicted: rebuilding counts as a miss
        assert cache.arep(g, PRECISIONS[0]) is not areps[0]
        assert cache.stats()["arep"]["misses"] == 5

    def test_clear_resets_entries_and_stats(self):
        cache = AnalysisCache()
        cache.arep(small_graph(), DataType.FLOAT16)
        cache.clear()
        assert len(cache) == 0
        assert all(v == {"hits": 0, "misses": 0, "evictions": 0}
                   for v in cache.stats().values())


class TestProfilerIntegration:
    def test_cached_reports_are_digest_identical(self):
        g = small_graph()
        cold = Profiler("trt-sim", "a100", analysis_cache=False).profile(g)
        cache = AnalysisCache()
        warm_profiler = Profiler("trt-sim", "a100", analysis_cache=cache)
        warm1 = warm_profiler.profile(g)
        warm2 = warm_profiler.profile(g)
        assert report_digest(cold) == report_digest(warm1)
        assert report_digest(cold) == report_digest(warm2)
        assert cache.stats()["mapped"]["hits"] == 1

    def test_measured_mode_does_not_corrupt_prototypes(self):
        g = small_graph()
        cache = AnalysisCache()
        kw = dict(metric_source="measured", analysis_cache=cache)
        m1 = Profiler("trt-sim", "a100", **kw).profile(g)
        m2 = Profiler("trt-sim", "a100", **kw).profile(g)
        cold = Profiler("trt-sim", "a100", metric_source="measured",
                        analysis_cache=False).profile(g)
        assert report_digest(m1) == report_digest(m2) == report_digest(cold)

    def test_precision_sweep_shares_shapes_not_areps(self):
        g = small_graph()
        cache = AnalysisCache()
        for precision in ("fp16", "fp32"):
            Profiler("trt-sim", "a100", precision,
                     analysis_cache=cache).profile(g)
        stats = cache.stats()
        assert stats["arep"]["misses"] == 2      # one AR per precision
        assert stats["mapped"]["misses"] == 2

    def test_true_resolves_to_shared_singleton(self):
        p1 = Profiler("trt-sim", "a100", analysis_cache=True)
        p2 = Profiler("trt-sim", "a100", analysis_cache=True)
        assert p1.analysis_cache is p2.analysis_cache
        assert p1.analysis_cache is shared_analysis_cache()

    def test_disabled_cache_still_profiles(self):
        g = small_graph()
        report = Profiler("trt-sim", "a100",
                          analysis_cache=None).profile(g)
        assert report.layers

    def test_disabled_cache_leaves_process_counters_unchanged(self):
        """Each uncached profile runs through a private cache, so the
        process-wide ``analysis_cache.*`` counters never move."""
        def counts():
            return {name: value for name, value in
                    default_registry().snapshot()["counters"].items()
                    if name.startswith("analysis_cache.")}

        AnalysisCache()     # registers every tier's counters
        before = counts()
        Profiler("trt-sim", "a100", analysis_cache=False).profile(
            small_graph())
        assert counts() == before

    def test_concurrent_profilers_share_one_cache(self):
        g = small_graph()
        cache = AnalysisCache()
        digests, errors = [], []

        def work():
            try:
                p = Profiler("trt-sim", "a100", analysis_cache=cache)
                digests.append(report_digest(p.profile(g)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(digests)) == 1


class TestFingerprintMemo:
    def test_fingerprint_cached_and_invalidated(self):
        g = small_graph()
        fp = graph_fingerprint(g)
        assert g._fingerprint_cache == fp
        assert graph_fingerprint(g) == fp
        g.invalidate()
        assert g._fingerprint_cache is None
        assert graph_fingerprint(g) == fp


class _DuckInfo:
    """Stand-in input info: TensorInfo coerces dims to non-negative
    ints, but externally-loaded graphs may carry symbolic dims."""

    def __init__(self, shape):
        self.shape = shape


class TestBatchSizeGuard:
    def _graph_with_batch(self, dim):
        g = Graph("g")
        g.inputs = [_DuckInfo((dim, 3, 8, 8))]
        return g

    def test_int_batch_passes_through(self):
        assert _graph_batch_size(self._graph_with_batch(16)) == 16

    def test_symbolic_batch_defaults_to_one(self):
        assert _graph_batch_size(self._graph_with_batch("N")) == 1

    def test_degenerate_shapes_default_to_one(self):
        assert _graph_batch_size(Graph("empty")) == 1
        assert _graph_batch_size(self._graph_with_batch(0)) == 1
        assert _graph_batch_size(self._graph_with_batch(-3)) == 1
        assert _graph_batch_size(self._graph_with_batch(True)) == 1

    def test_report_batch_size_stays_numeric(self):
        g = small_graph()
        report = Profiler("trt-sim", "a100",
                          analysis_cache=False).profile(g)
        assert isinstance(report.batch_size, int)
        assert isinstance(report.end_to_end.batch_size, int)


class TestPlanTierOptimizeKeys:
    """A keyed whole-graph tier counts one miss per build and one hit
    per reuse (the class is named after the removed plan tier, whose
    counts this check first covered)."""

    def test_miss_counts_mirror_hit_counts(self):
        cache = AnalysisCache()
        g = small_graph()
        cache.arep(g, DataType.INT8)
        cache.arep(g, DataType.INT8)
        assert cache.stats()["arep"] == {"hits": 1, "misses": 1,
                                         "evictions": 0}


class TestTierSizing:
    """The whole-graph tiers share ``max_entries``; the layer store
    sizes its own tiers."""

    def test_eviction_counter_in_eviction_counts(self):
        cache = AnalysisCache(max_entries=1)
        g = small_graph()
        cache.arep(g, DataType.FLOAT16)
        cache.arep(g, DataType.FLOAT32)
        assert cache.stats()["arep"]["evictions"] == 1
        # eviction really dropped the LRU entry: fp16 rebuilds as a miss
        cache.arep(g, DataType.FLOAT16)
        assert cache.stats()["arep"]["misses"] == 3

    def test_layer_store_has_independent_capacity(self):
        from repro.analysis.layerstore import LayerStore
        store = LayerStore(max_records=2)
        for i in range(4):
            store.record(("latency", f"fp{i}", "spec", "fp16"), lambda: i)
        assert store.stats()["layer"]["evictions"] == 2
        assert len(store) == 2


class TestLayerStoreSharing:
    """Store attachment semantics: private by default, shareable
    explicitly, or disabled for A/B measurement."""

    def test_private_store_by_default(self):
        a, b = AnalysisCache(), AnalysisCache()
        assert a.layer_store is not None
        assert a.layer_store is not b.layer_store

    def test_explicit_store_is_shared(self):
        from repro.analysis.layerstore import LayerStore
        store = LayerStore()
        a = AnalysisCache(layer_store=store)
        b = AnalysisCache(layer_store=store)
        assert a.layer_store is store and b.layer_store is store

    def test_false_disables_subgraph_tiers(self):
        g = small_graph()
        cache = AnalysisCache(layer_store=False)
        assert cache.layer_store is None
        report = Profiler("trt-sim", "a100",
                          analysis_cache=cache).profile(g)
        assert report.layers
        stats = cache.stats()
        # the tiers still report (zeroed) so gauges stay wired
        assert stats["layer"] == {"hits": 0, "misses": 0, "evictions": 0}
        assert stats["structure"] == {"hits": 0, "misses": 0,
                                      "evictions": 0}

    def test_clear_clears_attached_store(self):
        cache = AnalysisCache()
        Profiler("trt-sim", "a100", analysis_cache=cache).profile(
            small_graph())
        assert len(cache.layer_store) > 0
        cache.clear()
        assert len(cache.layer_store) == 0
        assert cache.stats()["layer"] == {"hits": 0, "misses": 0,
                                          "evictions": 0}

    def test_hit_rates_cover_all_tiers(self):
        cache = AnalysisCache()
        rates = cache.hit_rates()
        assert set(rates) == set(AnalysisCache.TIERS)
        assert all(r == 0.0 for r in rates.values())
        Profiler("trt-sim", "a100", analysis_cache=cache).profile(
            small_graph())
        Profiler("trt-sim", "a100", analysis_cache=cache).profile(
            small_graph())
        assert cache.hit_rates()["mapped"] == 0.5


class TestAssemblePath:
    """Cross-precision assembly: a sibling precision's structure plus
    shared latency records replace compile + mapping entirely."""

    def _digest(self, precision, **kw):
        g = small_graph()
        return report_digest(
            Profiler("trt-sim", "a100", precision, **kw).profile(g))

    def test_warm_store_fresh_cache_assembles_identically(self):
        from repro.analysis.layerstore import LayerStore
        store = LayerStore()
        # donor: fp16 populates the structure + latency records
        donor_cache = AnalysisCache(layer_store=store)
        self._digest("fp16", analysis_cache=donor_cache)
        # fresh cache, warm store: fp32 point assembles, never compiles
        fresh = AnalysisCache(layer_store=store)
        warm = self._digest("fp32", analysis_cache=fresh)
        cold = self._digest("fp32", analysis_cache=False)
        assert warm == cold
        stats = fresh.stats()
        assert stats["mapped"] == {"hits": 0, "misses": 1, "evictions": 0}
        assert store.stats()["structure"]["hits"] == 1

    def test_assembled_entries_count_as_mapped_misses(self):
        cache = AnalysisCache()
        g = small_graph()
        for precision in ("fp16", "fp32", "bf16"):
            Profiler("trt-sim", "a100", precision,
                     analysis_cache=cache).profile(g)
        stats = cache.stats()
        # every precision is a distinct mapped key: 3 misses, and the
        # two assembled points each hit the donor structure
        assert stats["mapped"]["misses"] == 3
        assert stats["structure"]["hits"] == 2
        assert stats["structure"]["misses"] == 1

    def test_assembled_reports_match_cold_per_precision(self):
        cache = AnalysisCache()
        for precision in ("fp16", "int8", "bf16"):
            warm = self._digest(precision, analysis_cache=cache)
            cold = self._digest(precision, analysis_cache=False)
            assert warm == cold, f"{precision} diverged via assembly"


class TestLayerTierConcurrency:
    def test_threaded_precision_sweep_is_digest_stable(self):
        """Six threads × three precisions race the layer and structure
        tiers; every result must match its single-thread cold digest."""
        g = small_graph()
        precisions = ("fp16", "fp32", "int8")
        cold = {p: report_digest(
                    Profiler("trt-sim", "a100", p,
                             analysis_cache=False).profile(g))
                for p in precisions}
        cache = AnalysisCache()
        results, errors = [], []

        def work(precision):
            try:
                p = Profiler("trt-sim", "a100", precision,
                             analysis_cache=cache)
                results.append(
                    (precision, report_digest(p.profile(g))))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work,
                                    args=(precisions[i % 3],))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for precision, digest in results:
            assert digest == cold[precision]


class TestOneGraphPerFingerprint:
    """Every tier refers to the one graph the ``shapes`` tier holds for
    a fingerprint, whichever request built the entry."""

    MODELS = ("mobilenetv2-05", "shufflenetv2-05", "vit-tiny")
    #: per model, in order: arep + mapped miss, assemble from the
    #: structure donor at a new precision, mapped miss on an arep hit
    CONFIGS = (("trt-sim", "a100", "fp16"), ("trt-sim", "a100", "fp32"),
               ("ort-sim", "xeon6330", "fp16"))

    def test_tiers_hold_one_graph_per_fingerprint(self):
        from repro.models.registry import build_model
        cache = AnalysisCache()
        fingerprints = set()
        for model in self.MODELS:
            for backend, spec, precision in self.CONFIGS:
                warm = Profiler(backend, spec, precision,
                                analysis_cache=cache).profile(
                    build_model(model))
                cold_graph = build_model(model)
                fingerprints.add(graph_fingerprint(cold_graph))
                cold = Profiler(backend, spec, precision,
                                analysis_cache=False).profile(cold_graph)
                assert report_digest(warm) == report_digest(cold), \
                    (model, backend, precision)
        stats = cache.stats()
        assert stats["arep"]["misses"] == 2 * len(self.MODELS)
        assert stats["structure"]["hits"] == len(self.MODELS)
        assert stats["mapped"]["misses"] == 3 * len(self.MODELS)

        mapped = list(cache._tiers["mapped"].values())
        donors = list(cache.layer_store._tiers["structure"].values())
        assert len(mapped) == 3 * len(self.MODELS)
        assert len(donors) == 2 * len(self.MODELS)
        graphs = {id(a.graph): a.graph
                  for a in cache._tiers["arep"].values()}
        for entry in mapped + donors:
            assert entry.compiled.graph is entry.arep.graph
            graphs[id(entry.arep.graph)] = entry.arep.graph
        assert len(graphs) == len(fingerprints) == len(self.MODELS)
        # ... and they are the graphs the shapes tier holds
        assert {id(g) for g in cache._tiers["shapes"].values()} \
            == set(graphs)
