"""CLI tests for the ``proof partition`` subcommand.

``test_partition_pipeline_json_report`` is the smoke check: ``proof
partition`` must emit a valid ``DistributionReport`` with sane aggregate
numbers.  See docs/DISTRIBUTION.md.
"""
import json

import pytest

from repro.core.cli import main
from repro.distribution import DistributionReport


def test_partition_basic(capsys):
    rc = main(["partition", "mobilenetv2-10", "--devices", "4",
               "--strategy", "pipeline", "--batch", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PRoof distribution report" in out
    assert "parallel efficiency" in out
    assert "device stage shard" in out


def test_partition_artifacts(capsys, tmp_path):
    json_path = tmp_path / "d.json"
    svg_path = tmp_path / "d.svg"
    html_path = tmp_path / "d.html"
    rc = main(["partition", "mobilenetv2-10", "--devices", "4",
               "--strategy", "tensor", "--link", "pcie", "--batch", "8",
               "--json", str(json_path), "--svg", str(svg_path),
               "--html", str(html_path), "--timeline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "timeline" in out
    doc = json.loads(json_path.read_text())
    assert doc["num_devices"] == 4
    assert doc["link_name"] == "pcie-gen4-x16"
    assert 0.0 < doc["aggregate"]["parallel_efficiency"] <= 1.0
    loaded = DistributionReport.from_dict(doc)
    assert len(loaded.devices) == 4
    assert svg_path.read_text().startswith("<svg")
    assert (tmp_path / "d.svg.timeline.svg").read_text().startswith("<svg")
    assert "<svg" in html_path.read_text()


def test_partition_host_bridged_topology(capsys):
    rc = main(["partition", "mobilenetv2-10", "--devices", "4",
               "--strategy", "hybrid", "--topology", "host-bridged",
               "--link", "pcie3", "--batch", "8"])
    assert rc == 0
    assert "host-bridged" in capsys.readouterr().out


def test_partition_bad_link(capsys):
    rc = main(["partition", "mobilenetv2-10", "--link", "smoke-signals",
               "--batch", "8"])
    assert rc == 2
    assert "unknown interconnect" in capsys.readouterr().err


def test_partition_trace_spans(capsys, tmp_path):
    trace = tmp_path / "t.json"
    rc = main(["partition", "mobilenetv2-10", "--devices", "2",
               "--batch", "8", "--trace", str(trace), "--trace-summary"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "partition.plan" in out
    assert "partition.schedule" in out
    assert "partition.analyze" in out
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    names = {e.get("name") for e in events}
    assert "partition.plan" in names


def test_partition_pipeline_json_report(capsys, tmp_path):
    """The default-batch pipeline split emits a valid, loadable
    DistributionReport with sane aggregate numbers."""
    json_path = tmp_path / "partition.json"
    rc = main(["partition", "mobilenetv2-10", "--devices", "4",
               "--strategy", "pipeline", "--json", str(json_path)])
    assert rc == 0
    doc = json.loads(json_path.read_text())
    eff = doc["aggregate"]["parallel_efficiency"]
    assert 0.0 < eff <= 1.0, f"efficiency {eff} outside (0, 1]"
    assert len(doc["devices"]) == 4, doc["devices"]
    assert doc["strategy"] == "pipeline"
    report = DistributionReport.from_dict(doc)
    assert report.iteration_seconds > 0
    assert report.layers, "expected per-layer classification rows"
