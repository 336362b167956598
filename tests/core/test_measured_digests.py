"""MEASURED-mode reports are pinned by digest.

``perfbench/oracle/digests.json`` covers PREDICTED reports only.  These
digests pin the counter-replay path (``Profiler._measurements``) for
two models on every backend at fp16, batch 1, both without an analysis
cache and through a fresh one.
"""
import pytest

from repro.analysis.cache import AnalysisCache
from repro.core.profiler import Profiler
from repro.core.report import MetricSource
from repro.ir.fingerprint import report_digest
from repro.models.registry import build_model

PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330",
             "ov-sim": "xeon6330"}

MEASURED_DIGESTS = {
    ("resnet50", "trt-sim"):
        "d54edd6eaed1eaafdfb81d84b9079fd67d35fbbe78a33bcb4fc0addbead40716",
    ("resnet50", "ort-sim"):
        "f7568e82bd4844996fd281f6f000de10c9c45b113b850ca0f7a4201442bc96b1",
    ("resnet50", "ov-sim"):
        "01d22b411d07a56eeca7a005180dcc5c6b36ccb73046680840761bb265e1c241",
    ("vit-tiny", "trt-sim"):
        "8ee199487684b1bb2fb121679ee70385eff24ec4de8b64a66ce10ed57089c657",
    ("vit-tiny", "ort-sim"):
        "e04eab2e676e936b1c509991acf12baf48bde48dde58173ffde58a2594a93324",
    ("vit-tiny", "ov-sim"):
        "64e5ae4214b82a986d56770f1fdb325c5cc8dc7ae178eda63de54e4d3822892c",
}


@pytest.mark.parametrize("model", ["resnet50", "vit-tiny"])
def test_measured_digests_match(model):
    graph = build_model(model, batch_size=1)
    for backend, plat in PLATFORMS.items():
        for cache in (False, AnalysisCache()):
            report = Profiler(backend, plat, "fp16",
                              metric_source=MetricSource.MEASURED,
                              analysis_cache=cache).profile(graph)
            assert report_digest(report) == \
                MEASURED_DIGESTS[(model, backend)], (backend, cache)
