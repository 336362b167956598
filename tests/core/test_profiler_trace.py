"""Tracing must be an observer: identical reports, zero residue when off.

The regression contract (the "Heisenberg check"): running the profiler
under a tracer may add ``stage_seconds`` telemetry, but everything the
profiler *measures about the model* must be bit-identical to the
untraced path, and the content digest must ignore the telemetry.
"""
import numpy as np
import pytest

from repro.analysis.cache import AnalysisCache
from repro.core.profiler import Profiler
from repro.ir.builder import GraphBuilder
from repro.ir.fingerprint import report_digest
from repro.ir.plan import ExecutionPlan
from repro.ir.shape_inference import infer_shapes
from repro.models.registry import build_model
from repro.obs import Tracer, set_tracer, use_tracer

MODEL = "mobilenetv2-05"

#: pipeline stages the traced profiler must account for (predicted mode)
EXPECTED_STAGES = {"compile", "arep", "oar", "mapping",
                   "layer_profiles", "roofline"}


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    yield
    set_tracer(None)


def _profile(**kwargs):
    profiler = Profiler("trt-sim", "a100", "fp16",
                        analysis_cache=kwargs.pop("analysis_cache", False),
                        **kwargs)
    return profiler.profile(build_model(MODEL, batch_size=1))


# ----------------------------------------------------------------------
# satellite: tracing-off reports are bit-identical to the seed path
# ----------------------------------------------------------------------
def test_untraced_report_has_no_stage_seconds():
    report = _profile()
    assert report.stage_seconds == {}
    assert "stage_seconds" not in report.to_dict()


def test_traced_report_digest_matches_untraced():
    untraced = _profile()
    with use_tracer(Tracer()):
        traced = _profile()
    assert traced.stage_seconds  # tracing did record telemetry
    assert report_digest(traced) == report_digest(untraced)
    # beyond the digest: the serialized documents agree exactly once
    # the telemetry key is removed
    traced_doc = traced.to_dict()
    traced_doc.pop("stage_seconds")
    assert traced_doc == untraced.to_dict()


def test_untraced_runs_are_deterministic():
    assert report_digest(_profile()) == report_digest(_profile())


# ----------------------------------------------------------------------
# traced runs expose the pipeline hierarchy
# ----------------------------------------------------------------------
def test_traced_run_records_pipeline_spans_and_stages():
    tracer = Tracer()
    with use_tracer(tracer):
        report = _profile()
    assert EXPECTED_STAGES <= set(report.stage_seconds)
    assert all(v >= 0.0 for v in report.stage_seconds.values())
    names = {s.name for s in tracer.spans()}
    assert {"profile"} | EXPECTED_STAGES <= names
    # stage spans nest under the profile root
    profile_span = next(s for s in tracer.spans() if s.name == "profile")
    compile_span = next(s for s in tracer.spans() if s.name == "compile")
    assert compile_span.trace_id == profile_span.trace_id
    assert profile_span.attributes["model"] == "mobilenetv2-0.5"


def test_pinned_tracer_records_while_global_stays_noop():
    tracer = Tracer()
    report = _profile(tracer=tracer)
    assert report.stage_seconds
    assert {"profile"} <= {s.name for s in tracer.spans()}


def test_mapped_entry_span_reports_cache_hits():
    cache = AnalysisCache()
    tracer = Tracer()
    with use_tracer(tracer):
        _profile(analysis_cache=cache)
        _profile(analysis_cache=cache)
    hits = [s.attributes.get("cache_hit")
            for s in tracer.spans() if s.name == "mapped_entry"]
    assert hits == [False, True]


# ----------------------------------------------------------------------
# per-op plan spans: opt-in, sampled, and result-neutral
# ----------------------------------------------------------------------
def _tiny_graph():
    b = GraphBuilder("tiny")
    x = b.input("x", (2, 16))
    y = b.linear(b.relu(b.linear(x, 32, name="fc1")), 8, name="fc2")
    b.output(y)
    infer_shapes(b.graph)
    return b.graph


def _feeds(graph):
    rng = np.random.default_rng(3)
    return {t.name: rng.standard_normal(t.shape).astype(np.float32)
            for t in graph.inputs}


def test_plan_op_spans_require_the_flag():
    graph = _tiny_graph()
    feeds = _feeds(graph)
    baseline = ExecutionPlan(graph).run(feeds)

    with use_tracer(Tracer()) as tracer:  # enabled but plan_ops=False
        plain = ExecutionPlan(graph).run(feeds)
    assert not any(s.name.startswith("op.") for s in tracer.spans())

    with use_tracer(Tracer(plan_ops=True)) as tracer:
        traced = ExecutionPlan(graph).run(feeds)
    op_spans = [s for s in tracer.spans() if s.name.startswith("op.")]
    assert op_spans
    assert {s.attributes["op_type"] for s in op_spans} >= {"Gemm", "Relu"}
    run_span = next(s for s in tracer.spans() if s.name == "plan.run")
    assert all(s.trace_id == run_span.trace_id for s in op_spans)

    # tracing never perturbs the computation
    for key in baseline:
        assert baseline[key].tobytes() == plain[key].tobytes()
        assert baseline[key].tobytes() == traced[key].tobytes()
