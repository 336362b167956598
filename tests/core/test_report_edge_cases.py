"""Report-model edge cases and viewer formatting helpers."""
import dataclasses
import json
import math

import pytest

from repro.core.dataviewer import _si as viewer_si
from repro.core.profiler import Profiler
from repro.core.report import EndToEnd, LayerProfile, ProfileReport
from repro.models.registry import build_model


def make_report(layers):
    e2e = EndToEnd(
        latency_seconds=sum(l.latency_seconds for l in layers),
        flop=sum(l.flop for l in layers),
        memory_bytes=sum(l.memory_bytes for l in layers),
        batch_size=2,
    )
    return ProfileReport(
        model_name="m", backend_name="b", platform_name="p",
        precision="float16", batch_size=2, metric_source="predicted",
        layers=layers, end_to_end=e2e,
        peak_flops=1e12, peak_bandwidth=1e11)


def layer(name, lat=1e-4, flop=1e6, rd=1e4, wr=1e4, klass="conv",
          members=()):
    return LayerProfile(name=name, kind="execution", op_class=klass,
                        latency_seconds=lat, flop=flop, read_bytes=rd,
                        write_bytes=wr, model_layers=list(members))


class TestEndToEnd:
    def test_zero_latency_degenerate(self):
        e = EndToEnd(0.0, 0.0, 0.0)
        assert e.achieved_flops == 0.0
        assert e.achieved_bandwidth == 0.0
        assert e.throughput_per_second == 0.0
        assert e.arithmetic_intensity == 0.0

    def test_throughput_uses_batch(self):
        e = EndToEnd(latency_seconds=0.5, flop=1, memory_bytes=1,
                     batch_size=64)
        assert e.throughput_per_second == 128.0


class TestLayerProfile:
    def test_zero_memory_zero_ai(self):
        l = layer("l", rd=0, wr=0)
        assert l.arithmetic_intensity == 0.0

    def test_zero_latency_degenerate(self):
        l = layer("l", lat=0.0)
        assert l.achieved_flops == 0.0
        assert l.achieved_bandwidth == 0.0


class TestReportQueries:
    def test_empty_latency_shares(self):
        report = make_report([layer("a", lat=0.0)])
        assert report.latency_share_by_class() == {}

    def test_layers_by_class_partitions(self):
        report = make_report([layer("a", klass="conv"),
                              layer("b", klass="matmul"),
                              layer("c", klass="conv")])
        groups = report.layers_by_class()
        assert {len(v) for v in groups.values()} == {1, 2}
        assert sum(len(v) for v in groups.values()) == 3

    def test_top_layers_handles_large_n(self):
        report = make_report([layer("a"), layer("b")])
        assert len(report.top_layers(10)) == 2

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(KeyError):
            ProfileReport.from_dict({"model_name": "m"})


class TestSiFormatting:
    @pytest.mark.parametrize("value,expected", [
        (0, "0 FLOP"),
        (1.5e12, "1.50 TFLOP"),
        (2.5e9, "2.50 GFLOP"),
        (999, "999.00 FLOP"),
        (1e3, "1.00 KFLOP"),
    ])
    def test_dataviewer_si(self, value, expected):
        assert viewer_si(value, "FLOP") == expected

    def test_htmlreport_si(self):
        from repro.core.htmlreport import _si
        assert _si(3.2e9, "B") == "3.20 GB"
        assert _si(5.0, "B") == "5.00 B"


def _asdict_reference(report):
    """The document ``to_dict`` produced when it was ``asdict``-based."""
    doc = dataclasses.asdict(report)
    if not doc.get("stage_seconds"):
        doc.pop("stage_seconds", None)
    e2e = report.end_to_end
    doc["derived"] = {
        "achieved_gflops": e2e.achieved_flops / 1e9,
        "achieved_bandwidth_gbs": e2e.achieved_bandwidth / 1e9,
        "arithmetic_intensity": e2e.arithmetic_intensity,
        "throughput_per_second": e2e.throughput_per_second,
    }
    return doc


class TestToDict:
    @pytest.mark.parametrize("model,backend,platform,precision", [
        ("mobilenetv2-05", "trt-sim", "a100", "fp16"),
        ("resnet34", "ort-sim", "xeon6330", "fp32"),
        ("vit-tiny", "ov-sim", "xeon6330", "fp32"),
    ])
    @pytest.mark.parametrize("stages", [False, True])
    def test_matches_asdict_reference(self, model, backend, platform,
                                      precision, stages):
        report = Profiler(backend, platform, precision,
                          analysis_cache=False).profile(build_model(model))
        if stages:
            report.stage_seconds = {"compile": 1e-3, "mapping": 2e-4}
        doc = report.to_dict()
        ref = _asdict_reference(report)
        assert doc == ref
        # same keys in the same order at every level, so the JSON text
        # (and every file saved from it) is unchanged
        assert json.dumps(doc) == json.dumps(ref)
        assert ("stage_seconds" in doc) is stages
        # the document is a copy: editing it leaves the report alone
        doc["layers"][0]["model_layers"].append("x")
        doc.get("stage_seconds", {})["compile"] = 9.0
        assert report.to_dict() == ref
