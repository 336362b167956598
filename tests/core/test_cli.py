"""CLI tests: the ``proof`` entry point."""
import json
import re

import pytest

from repro.core.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "resnet50" in out
    assert "a100" in out
    assert "trt-sim" in out


def test_run_predict(capsys, tmp_path):
    json_path = tmp_path / "r.json"
    svg_path = tmp_path / "r.svg"
    rc = main(["run", "--model", "shufflenetv2-10", "--platform", "a100",
               "--batch", "8", "--json", str(json_path),
               "--svg", str(svg_path), "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PRoof report" in out
    doc = json.loads(json_path.read_text())
    assert doc["model_name"] == "shufflenetv2-x1"
    assert svg_path.read_text().startswith("<svg")


def test_run_measure_mode(capsys):
    rc = main(["run", "--model", "mobilenetv2-05", "--batch", "4",
               "--mode", "measure"])
    assert rc == 0
    assert "counter-collection overhead" in capsys.readouterr().out


def test_run_unsupported_model_returns_2(capsys):
    rc = main(["run", "--model", "vit-tiny", "--platform", "npu3720",
               "--backend", "ov-sim"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("level", [0, 3])
def test_run_execute_reports_plan(capsys, level):
    rc = main(["run", "--model", "mobilenetv2-05", "--top", "1",
               "--execute", "--optimize", str(level)])
    assert rc == 0
    out = capsys.readouterr().out
    match = re.search(rf"numpy runtime \(optimize={level}\): (\d+) steps",
                      out)
    assert match, out
    assert int(match.group(1)) > 0


def test_peak_default(capsys):
    assert main(["peak", "--platform", "a100"]) == 0
    out = capsys.readouterr().out
    assert "FLOP/s" in out


def test_peak_with_clocks(capsys):
    assert main(["peak", "--platform", "orin-nx", "--gpu-clock", "510",
                 "--mem-clock", "2133"]) == 0
    out = capsys.readouterr().out
    assert "510" in out
    assert "Power" in out


def test_parser_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--model", "alexnet"])


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sweep_command(capsys):
    from repro.core.cli import main
    rc = main(["sweep", "--model", "mobilenetv2-05",
               "--batches", "1,16,128"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "peak throughput" in out
    assert "128" in out


def test_sweep_rejects_bad_batches():
    from repro.core.cli import main
    with pytest.raises(ValueError):
        main(["sweep", "--model", "mobilenetv2-05", "--batches", "0,4"])


def test_run_with_insights(capsys):
    from repro.core.cli import main
    rc = main(["run", "--model", "shufflenetv2-10", "--batch", "256",
               "--insights", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "optimization guidance:" in out
    assert "transpose/copy" in out


def test_batch_command_repeats_hit_cache(capsys):
    rc = main(["batch", "mobilenetv2-05", "--repeat", "2", "--workers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("succeeded") == 2
    assert "yes" in out                  # the repeat wave is served cached
    assert "50.0% hit ratio" in out
    assert "1 profiled, 1 cache hits" in out


def test_batch_command_multiple_models(capsys):
    rc = main(["batch", "mobilenetv2-05", "shufflenetv2-05",
               "--workers", "2", "--batch", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mobilenetv2-05" in out
    assert "shufflenetv2-05" in out
    assert "2 profiled" in out


def test_batch_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["batch", "alexnet"])


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.port == 8080
    assert args.workers == 4
    assert args.cache_mb == 64.0
    assert args.queue_size == 256


def test_serve_command_starts_and_stops(capsys, monkeypatch):
    from repro.service import ProfilingServer
    monkeypatch.setattr(ProfilingServer, "serve_forever",
                        lambda self: None)
    rc = main(["serve", "--port", "0", "--workers", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "listening on http://127.0.0.1:" in out
    assert "POST /profile" in out


def test_run_with_module_rollup(capsys):
    from repro.core.cli import main
    rc = main(["run", "--model", "resnet50", "--batch", "8",
               "--by-module", "1", "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "module rollup (depth 1):" in out
    assert "layer1.0" in out


def test_run_with_trace_writes_chrome_trace(capsys, tmp_path):
    from repro.obs import NoopTracer, get_tracer
    trace_path = tmp_path / "trace.json"
    rc = main(["run", "--model", "mobilenetv2-05", "--top", "3",
               "--trace", str(trace_path), "--trace-summary"])
    assert rc == 0
    # the CLI tracer is uninstalled once the command finishes
    assert isinstance(get_tracer(), NoopTracer)
    out = capsys.readouterr().out
    assert "profiler stage times" in out          # stage table in report
    assert f"written to {trace_path}" in out
    assert "profile " in out                      # the span-tree summary
    events = json.loads(trace_path.read_text())
    assert isinstance(events, list) and events
    names = {e["name"] for e in events}
    # compile/mapping spans vanish when the shared analysis cache is
    # warm from earlier tests; these stages always run
    assert {"profile", "arep", "layer_profiles", "roofline"} <= names
    for evt in events:
        assert "ph" in evt and "ts" in evt and "name" in evt
        if evt["ph"] == "X":
            assert "dur" in evt


def test_run_log_level_flag(capsys):
    rc = main(["run", "--model", "mobilenetv2-05", "--top", "1",
               "--log-level", "warning"])
    assert rc == 0
