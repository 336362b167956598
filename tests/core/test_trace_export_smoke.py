"""``proof run --trace`` writes a valid Chrome trace-event array,
compile and mapping spans included.

The CLI runs in a fresh interpreter, so the process-wide analysis
cache is cold and the ``compile`` and ``mapping`` spans are always
present (the in-process CLI test cannot rely on them: earlier tests may
have warmed the shared cache).
"""
import json


def test_run_trace_exports_chrome_trace_events(run_python, tmp_path):
    trace = tmp_path / "trace.json"
    run_python("-m", "repro.core.cli", "run", "--model", "mobilenetv2-05",
               "--top", "3", "--trace", str(trace))
    events = json.loads(trace.read_text())
    assert isinstance(events, list) and events, \
        "expected a non-empty event array"
    for evt in events:
        assert "ph" in evt and "ts" in evt and "name" in evt, evt
        if evt["ph"] == "X":
            assert isinstance(evt["dur"], (int, float)), evt
    names = {e["name"] for e in events}
    assert {"profile", "compile", "mapping", "roofline"} <= names, names
