"""Every analysis-cache path reproduces the committed oracle digests.

``perfbench/oracle/digests.json`` holds the ``report_digest`` of every
request the benchmark can draw, generated with
``Profiler(analysis_cache=False)``.  The batch-1 keys are profiled here
three ways: store-free (``analysis_cache=False``), through a fresh
``AnalysisCache()`` per key, and through one cache shared across all
keys, where sibling precisions take the assemble path.  The file is
read, never rewritten.
"""
import json
from pathlib import Path

import pytest

from repro.analysis.cache import AnalysisCache
from repro.core.profiler import Profiler
from repro.ir.fingerprint import report_digest
from repro.models.registry import build_model

DIGESTS_PATH = (Path(__file__).resolve().parents[2]
                / "perfbench" / "oracle" / "digests.json")
#: the platform each backend is profiled on (perfbench's
#: ``schedule.BACKENDS``)
PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330",
             "ov-sim": "xeon6330"}


def batch1_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    return {tuple(key.split("|")[:3]): digest
            for key, digest in sorted(digests.items())
            if key.endswith("|1")}


@pytest.mark.parametrize("mode", ["uncached", "fresh", "shared"])
def test_batch1_oracle_digests_match(mode):
    expected = batch1_digests()
    assert len(expected) == 66
    shared = AnalysisCache()
    graphs = {}
    mismatched = []
    for (model, backend, precision), digest in expected.items():
        if model not in graphs:
            graphs[model] = build_model(model, batch_size=1)
        cache = False if mode == "uncached" else \
            AnalysisCache() if mode == "fresh" else shared
        report = Profiler(backend, PLATFORMS[backend], precision,
                          analysis_cache=cache).profile(graphs[model])
        if report_digest(report) != digest:
            mismatched.append(f"{model}|{backend}|{precision}|1")
    assert not mismatched, mismatched
    if mode == "shared":
        # sibling precisions of one (model, backend) were assembled
        assert shared.stats()["structure"]["hits"] > 0
