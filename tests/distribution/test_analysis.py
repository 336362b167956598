"""DistributionReport tests: rooflines, classification, round trip."""
import json

import pytest

from repro.backends import Backend
from repro.core.profiler import Profiler
from repro.distribution import (BOUND_COMMUNICATION, BOUND_COMPUTE,
                                BOUND_MEMORY, DistributionReport, NVLINK,
                                PCIE_GEN4, profile_partitioned)
from repro.distribution.analysis import _classify

STRATEGIES = ("pipeline", "tensor", "hybrid")
DEVICE_COUNTS = (2, 4, 8)


class TestClassify:
    def test_communication_wins_over_compute(self):
        assert _classify(500.0, 228.0, 1e-3, 2e-3) == BOUND_COMMUNICATION

    def test_ridge_decides_without_comm(self):
        assert _classify(500.0, 228.0, 1e-3, 0.0) == BOUND_COMPUTE
        assert _classify(10.0, 228.0, 1e-3, 0.0) == BOUND_MEMORY


class TestReport:
    def test_single_device_baseline(self, resnet_report):
        dist, _, _ = profile_partitioned(resnet_report, 1)
        assert dist.parallel_efficiency == pytest.approx(1.0)
        assert dist.throughput_speedup == pytest.approx(1.0)
        assert dist.communication_fraction == 0.0
        assert dist.bound_counts().get(BOUND_COMMUNICATION, 0) == 0

    def test_efficiency_in_unit_interval(self, resnet_report):
        for strategy in ("pipeline", "tensor", "hybrid"):
            for n in (2, 4, 8):
                dist, _, _ = profile_partitioned(
                    resnet_report, n, strategy=strategy, link=NVLINK)
                assert 0.0 < dist.parallel_efficiency <= 1.0, \
                    (strategy, n)

    def test_aggregate_roofline_is_n_times_device(self, resnet_report):
        dist, _, _ = profile_partitioned(resnet_report, 4)
        dev = dist.device_roofline()
        agg = dist.aggregate_roofline()
        assert agg.peak_flops == pytest.approx(4 * dev.peak_flops)
        assert agg.peak_bandwidth == pytest.approx(4 * dev.peak_bandwidth)

    def test_points_cover_devices(self, resnet_report):
        dist, _, _ = profile_partitioned(resnet_report, 4)
        assert len(dist.device_points()) == 4
        agg = dist.aggregate_point()
        assert agg.achieved_flops > 0

    def test_total_flop_is_conserved(self, resnet_report):
        base = sum(l.flop for l in resnet_report.layers)
        for strategy in ("pipeline", "tensor", "hybrid"):
            dist, _, _ = profile_partitioned(resnet_report, 4,
                                             strategy=strategy)
            assert dist.total_flop == pytest.approx(base, rel=1e-9)

    def test_default_link_comes_from_spec(self, resnet_report):
        # a100's HardwareSpec names nvlink3 as its interconnect
        dist, _, _ = profile_partitioned(resnet_report, 4)
        assert dist.link_name == "nvlink3"


class TestClassificationFlip:
    """The PR's headline acceptance: layers compute-bound on one device
    flip to communication-bound at scale over PCIe."""

    def test_resnet50_flips_over_pcie_tensor(self, resnet_report):
        single, _, _ = profile_partitioned(resnet_report, 1,
                                           strategy="tensor",
                                           link=PCIE_GEN4)
        wide, _, _ = profile_partitioned(resnet_report, 8,
                                         strategy="tensor", link=PCIE_GEN4)
        base = {l.name: l.bound for l in single.layers}
        flipped = [l.name for l in wide.layers
                   if l.bound == BOUND_COMMUNICATION
                   and base.get(l.name) == BOUND_COMPUTE]
        assert flipped, "expected compute->communication flips on PCIe"

    def test_nvlink_flips_fewer_than_pcie(self, resnet_report):
        nv, _, _ = profile_partitioned(resnet_report, 8, strategy="tensor",
                                       link=NVLINK)
        pcie, _, _ = profile_partitioned(resnet_report, 8,
                                         strategy="tensor", link=PCIE_GEN4)
        assert pcie.communication_fraction > nv.communication_fraction


class TestSweep:
    """What-ifs over one profile: no re-analysis, work conserved."""

    def test_sweep_reuses_the_profile(self, resnet_report, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the partition sweep re-ran analysis")

        monkeypatch.setattr(Profiler, "profile", refuse)
        monkeypatch.setattr(Backend, "compile", refuse)
        base = (sum(l.flop for l in resnet_report.layers),
                sum(l.read_bytes for l in resnet_report.layers),
                sum(l.write_bytes for l in resnet_report.layers))
        for strategy in STRATEGIES:
            for n in DEVICE_COUNTS:
                dist, plan, _ = profile_partitioned(resnet_report, n,
                                                    strategy=strategy)
                assert plan.totals() == pytest.approx(base, rel=1e-9)
                assert 0.0 < dist.parallel_efficiency <= 1.0
                assert 0.0 <= dist.communication_fraction < 1.0

    def test_scaling_shapes(self, resnet_report):
        # NVLink pipelines outscale PCIe tensor parallelism at every N,
        # and PCIe tensor parallelism goes communication-bound at N=8
        for n in DEVICE_COUNTS:
            nv, _, _ = profile_partitioned(resnet_report, n,
                                           strategy="pipeline", link=NVLINK)
            pt, _, _ = profile_partitioned(resnet_report, n,
                                           strategy="tensor", link=PCIE_GEN4)
            assert nv.parallel_efficiency > pt.parallel_efficiency, n
        assert pt.communication_fraction > 0.5


class TestSerialization:
    def test_json_round_trip(self, resnet_report, tmp_path):
        dist, _, _ = profile_partitioned(resnet_report, 4,
                                         strategy="hybrid")
        path = tmp_path / "dist.json"
        dist.save(str(path))
        doc = json.loads(path.read_text())
        assert doc["strategy"] == "hybrid"
        assert doc["aggregate"]["parallel_efficiency"] == pytest.approx(
            dist.parallel_efficiency)
        loaded = DistributionReport.load(str(path))
        assert loaded.to_dict() == dist.to_dict()
        assert loaded.devices == dist.devices
        assert loaded.layers == dist.layers
