"""The committed ``BENCH_plan.json`` keeps publishing its ``o3`` section.

``benchmarks/test_plan_speedup.py`` writes the section on its timing
runs; a regenerated file without it means the O3 timing test silently
disappeared.  The check reads the committed file only, so it takes no
wall-clock measurement.  CI runs this file as one step.
"""
import json
from pathlib import Path

BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_plan.json"


def test_o3_section_present_and_above_floor():
    doc = json.loads(BENCH_PATH.read_text())
    assert "o3" in doc, f"BENCH_plan.json lost its o3 section: {sorted(doc)}"
    sec = doc["o3"]
    for key in ("floor", "model", "models"):
        assert key in sec, f"o3 section missing {key!r}: {sorted(sec)}"
    best = sec["models"][sec["model"]]["speedup_o3"]
    assert best >= sec["floor"], \
        f"committed o3 speedup {best}x below the {sec['floor']}x floor"
