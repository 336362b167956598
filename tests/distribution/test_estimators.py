"""Closed-form estimator tests (ported from tests/core/test_distributed
when the estimators moved to repro.distribution)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.distribution import (NVLINK, PCIE_GEN4, estimate_pipeline,
                                estimate_tensor_parallel)
from repro.distribution.estimators import _split_balanced


class TestPipeline:
    def test_single_device_is_identity(self, vit_report):
        est = estimate_pipeline(vit_report, 1)
        assert est.iteration_seconds == pytest.approx(
            vit_report.end_to_end.latency_seconds)
        assert est.throughput_speedup == pytest.approx(1.0)

    def test_stages_cover_all_layers_in_order(self, vit_report):
        est = estimate_pipeline(vit_report, 4)
        names = [l.name for s in est.stages for l in s.layers]
        assert names == [l.name for l in vit_report.layers]

    def test_throughput_improves_with_devices(self, vit_report):
        t1 = estimate_pipeline(vit_report, 1).iteration_seconds
        t2 = estimate_pipeline(vit_report, 2).iteration_seconds
        t4 = estimate_pipeline(vit_report, 4).iteration_seconds
        assert t4 < t2 < t1

    def test_efficiency_below_one_with_communication(self, vit_report):
        est = estimate_pipeline(vit_report, 4)
        assert 0.3 < est.parallel_efficiency <= 1.0
        assert 0.0 <= est.bubble_fraction < 0.7

    def test_fill_latency_exceeds_iteration(self, vit_report):
        est = estimate_pipeline(vit_report, 4)
        assert est.fill_latency_seconds > est.iteration_seconds

    def test_slow_interconnect_hurts(self, vit_report):
        fast = estimate_pipeline(vit_report, 4, NVLINK)
        slow = estimate_pipeline(vit_report, 4, PCIE_GEN4)
        assert slow.iteration_seconds >= fast.iteration_seconds

    def test_more_devices_than_layers_degenerate(self, vit_report):
        n = len(vit_report.layers) + 5
        est = estimate_pipeline(vit_report, n)
        assert len(est.stages) == n
        assert est.iteration_seconds > 0

    def test_invalid_device_count(self, vit_report):
        with pytest.raises(ValueError):
            estimate_pipeline(vit_report, 0)


class TestTensorParallel:
    def test_single_device_is_identity(self, vit_report):
        est = estimate_tensor_parallel(vit_report, 1)
        assert est.iteration_seconds == pytest.approx(
            vit_report.end_to_end.latency_seconds)
        assert est.allreduce_seconds == 0.0

    def test_latency_improves_with_devices(self, vit_report):
        t1 = estimate_tensor_parallel(vit_report, 1).iteration_seconds
        t4 = estimate_tensor_parallel(vit_report, 4).iteration_seconds
        assert t4 < t1

    def test_amdahl_replicated_floor(self, vit_report):
        est = estimate_tensor_parallel(vit_report, 64)
        assert est.iteration_seconds > est.replicated_seconds

    def test_communication_grows_with_devices(self, vit_report):
        c2 = estimate_tensor_parallel(vit_report, 2).allreduce_seconds
        c8 = estimate_tensor_parallel(vit_report, 8).allreduce_seconds
        assert c8 > c2

    def test_shards_matrix_layers_only(self, vit_report):
        est = estimate_tensor_parallel(vit_report, 4)
        matrix_layers = [l for l in vit_report.layers if l.op_class in
                         ("matmul", "conv", "pointwise_conv")]
        assert est.sharded_layer_count == len(matrix_layers)

    def test_pcie_communication_bound(self, vit_report):
        nv = estimate_tensor_parallel(vit_report, 8, NVLINK)
        pcie = estimate_tensor_parallel(vit_report, 8, PCIE_GEN4)
        assert pcie.communication_fraction > nv.communication_fraction

    def test_allreduce_charges_per_round_latency(self, vit_report):
        """The satellite fix: the estimate uses the per-round ring cost,
        so it is bounded below by the collectives' summed latency terms."""
        n = 8
        est = estimate_tensor_parallel(vit_report, n, NVLINK)
        reduces = sum(1 for i, l in enumerate(
            l for l in vit_report.layers
            if l.op_class in ("matmul", "conv", "pointwise_conv"))
            if i % 2 == 1)
        matrix = [l for l in vit_report.layers
                  if l.op_class in ("matmul", "conv", "pointwise_conv")]
        if len(matrix) % 2 == 1:
            reduces += 1
        floor = reduces * 2 * (n - 1) * NVLINK.latency_seconds
        assert est.allreduce_seconds >= floor


@given(st.integers(1, 12))
@settings(max_examples=12, deadline=None)
def test_pipeline_bottleneck_at_least_mean(n):
    """The bottleneck stage can never beat the perfect split."""
    lats = [0.001 * (i % 7 + 1) for i in range(40)]
    cuts = _split_balanced(lats, n)
    bounds = [0] + cuts + [len(lats)]
    stage_sums = [sum(lats[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert max(stage_sums) >= sum(lats) / n - 1e-12
    assert sum(stage_sums) == pytest.approx(sum(lats))

