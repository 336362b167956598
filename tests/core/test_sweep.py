"""Batch-sweep utility tests."""
import threading

import pytest

from repro.analysis.cache import AnalysisCache
from repro.core.report import ProfileReport
from repro.core.sweep import BatchSweep, SweepPoint, sweep_batch_sizes
from repro.models import shufflenet_v2, shufflenet_v2_modified


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_batch_sizes(
        lambda bs: shufflenet_v2(1.0, batch_size=bs),
        batch_sizes=(1, 8, 64, 256))


def test_throughput_monotone_then_saturating(small_sweep):
    tp = [p.throughput_per_second for p in small_sweep.points]
    assert tp[0] < tp[-1]
    assert small_sweep.best_throughput().batch_size >= 64


def test_latency_monotone_in_batch(small_sweep):
    lat = [p.latency_seconds for p in small_sweep.points]
    assert lat == sorted(lat)
    assert small_sweep.best_latency().batch_size == 1


def test_saturation_batch_reasonable(small_sweep):
    sat = small_sweep.saturation_batch()
    assert sat in (8, 64, 256)
    # peak throughput batch is >= the saturation batch
    assert small_sweep.best_throughput().batch_size >= sat


def test_ai_grows_with_batch(small_sweep):
    """Weights amortize over the batch, so arithmetic intensity rises."""
    ais = [p.arithmetic_intensity for p in small_sweep.points]
    assert ais[0] < ais[-1]


def test_speedup_over_reproduces_table5(small_sweep):
    modified = sweep_batch_sizes(
        lambda bs: shufflenet_v2_modified(1.0, batch_size=bs),
        batch_sizes=(1, 8, 64, 256))
    speedups = modified.speedup_over(small_sweep)
    assert all(s > 1.2 for s in speedups)


def test_speedup_requires_shared_batches(small_sweep):
    other = BatchSweep("m", "p", [SweepPoint(512, 1, 1, 1, 1, 1)])
    with pytest.raises(ValueError, match="share no batch"):
        other.speedup_over(small_sweep)


def test_input_validation():
    with pytest.raises(ValueError, match="at least one"):
        sweep_batch_sizes(lambda bs: shufflenet_v2(1.0, batch_size=bs),
                          batch_sizes=())
    with pytest.raises(ValueError, match="positive"):
        sweep_batch_sizes(lambda bs: shufflenet_v2(1.0, batch_size=bs),
                          batch_sizes=(0,))


class TestReportRoundtrip:
    def test_save_load(self, tmp_path):
        from repro.core.profiler import Profiler
        report = Profiler("trt-sim", "a100", "fp16").profile(
            shufflenet_v2(1.0, batch_size=4))
        path = str(tmp_path / "r.json")
        report.save(path)
        loaded = ProfileReport.load(path)
        assert loaded.model_name == report.model_name
        assert len(loaded.layers) == len(report.layers)
        assert loaded.end_to_end.latency_seconds == pytest.approx(
            report.end_to_end.latency_seconds)
        assert loaded.layers[0].model_layers == report.layers[0].model_layers
        # derived metrics recompute identically
        assert loaded.latency_share_by_class() == pytest.approx(
            report.latency_share_by_class())

class TestParallelSweep:
    """A sweep profiles its points one after another; several sweeps
    may run at once over one shared cache."""

    BATCHES = (1, 4, 16, 64)

    @staticmethod
    def build(bs):
        return shufflenet_v2(0.5, batch_size=bs)

    def test_threaded_results_match_serial(self):
        """Sweeps started from several threads over one cache return
        exactly the points of a sweep run alone."""
        serial = sweep_batch_sizes(self.build, batch_sizes=self.BATCHES,
                                   analysis_cache=AnalysisCache())
        cache = AnalysisCache()
        results = [None] * 3

        def run(i):
            results[i] = sweep_batch_sizes(
                self.build, batch_sizes=self.BATCHES, analysis_cache=cache)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for threaded in results:
            assert [p.batch_size for p in threaded.points] == \
                list(self.BATCHES)
            assert threaded.points == serial.points    # frozen dataclasses
            assert threaded.model_name == serial.model_name

    def test_precision_sweep_shares_one_graph_per_batch(self):
        """Every precision's point at a batch profiles one shared graph;
        sibling precisions assemble from the first one's structure,
        re-timing its truth units after its OAR is gone."""
        built = []

        def build(bs):
            built.append(bs)
            return self.build(bs)

        precisions = ("fp32", "fp16", "int8")
        cold = sweep_batch_sizes(self.build, batch_sizes=(1, 4),
                                 precisions=precisions,
                                 analysis_cache=False)
        sweep = sweep_batch_sizes(build, batch_sizes=(1, 4),
                                  precisions=precisions,
                                  analysis_cache=AnalysisCache())
        assert sorted(built) == [1, 4]
        assert len(sweep.points) == len(precisions) * 2
        assert sweep.points == cold.points
        # fp32 donates its structure to fp16 and int8 at each batch
        assert sweep.cache_stats["structure"]["hits"] > 0

    def test_per_point_spans_parented_to_sweep_root(self):
        from repro.obs import Tracer, set_tracer
        tracer = Tracer()
        set_tracer(tracer)
        try:
            sweep_batch_sizes(self.build, batch_sizes=(1, 4))
        finally:
            set_tracer(None)
        spans = tracer.spans()
        roots = [s for s in spans if s.name == "sweep"]
        points = [s for s in spans if s.name == "sweep.point"]
        assert len(roots) == 1 and len(points) == 2
        assert all(p.parent_id == roots[0].span_id for p in points)
        assert {p.attributes["batch"] for p in points} == {1, 4}
        assert roots[0].attributes["points"] == 2
