"""Backend compile-template tests (no-op merging, timing)."""
import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.oarep import FusedOp
from repro.backends import ReformatUnit, TensorRTSim
from repro.backends.optimizer import FusionConfig, FusionPlanner, GroupKind
from repro.hardware.specs import platform
from repro.ir.builder import GraphBuilder
from repro.ir.tensor import DataType

A100 = platform("a100")


def test_merge_noop_into_consumer():
    b = GraphBuilder("g")
    x = b.input("x", (2, 12))
    r = b.reshape(x, (2, 3, 4))
    y = b.node("Softmax", [r], attrs={"axis": -1})
    g = b.finish(y)
    ar = AnalyzeRepresentation(g)
    groups = FusionPlanner(ar, FusionConfig.aggressive()).plan()
    merged = TensorRTSim._merge_noops_into_neighbours(groups, ar)
    assert all(gr.kind != GroupKind.NOOP for gr in merged)
    softmax_group = next(gr for gr in merged
                         if any(m.op_type == "Softmax" for m in gr.members))
    assert any(m.op_type == "Reshape" for m in softmax_group.members)


def test_merge_trailing_noop_into_producer():
    b = GraphBuilder("g")
    x = b.input("x", (2, 3, 4))
    y = b.node("Softmax", [x], attrs={"axis": -1})
    out = b.reshape(y, (2, 12))   # final reshape feeds only the output
    g = b.finish(out)
    ar = AnalyzeRepresentation(g)
    groups = FusionPlanner(ar, FusionConfig.aggressive()).plan()
    merged = TensorRTSim._merge_noops_into_neighbours(groups, ar)
    assert len(merged) == 1
    assert {m.op_type for m in merged[0].members} == {"Softmax", "Reshape"}


def test_compile_runs_shape_inference_if_needed():
    b = GraphBuilder("g")
    x = b.input("x", (1, 3, 8, 8))
    y = b.conv(x, 4, 3, padding=1)
    g = b.finish(y)
    g.value_info = {}   # as if freshly deserialized
    model = TensorRTSim().compile(g, A100, DataType.FLOAT16)
    assert model.total_latency_seconds > 0


def _conv_graph():
    b = GraphBuilder("g")
    x = b.input("x", (1, 3, 8, 8))
    y = b.relu(b.conv(x, 4, 3, padding=1))
    return b.finish(y)


def test_compile_times_over_the_given_analyze_representation():
    g = _conv_graph()
    arep = AnalyzeRepresentation(g, DataType.FLOAT16)
    model = TensorRTSim().compile(g, A100, DataType.FLOAT16, arep=arep)
    members = set()
    for unit in model.truth_units:
        if isinstance(unit, FusedOp):
            members.update(id(m) for m in unit.members)
        elif not isinstance(unit, ReformatUnit):
            members.add(id(unit))
    assert members == {id(op) for op in arep.ops}
    # same latencies as a compile that builds its own AR
    own = TensorRTSim().compile(_conv_graph(), A100, DataType.FLOAT16)
    assert [l.latency_seconds for l in model.layers] == \
        [l.latency_seconds for l in own.layers]


def test_compile_rejects_an_analyze_representation_of_another_graph():
    from repro.backends.base import BackendError
    arep = AnalyzeRepresentation(_conv_graph(), DataType.FLOAT16)
    with pytest.raises(BackendError, match="analyze representation"):
        TensorRTSim().compile(_conv_graph(), A100, DataType.FLOAT16,
                              arep=arep)


def test_latencies_deterministic():
    from repro.models import mobilenet_v2
    be = TensorRTSim()
    a = be.compile(mobilenet_v2(1.0, batch_size=4), A100, DataType.FLOAT16)
    b_ = be.compile(mobilenet_v2(1.0, batch_size=4), A100, DataType.FLOAT16)
    assert [l.latency_seconds for l in a.layers] == \
        [l.latency_seconds for l in b_.layers]


def test_swin_resolution_validation():
    from repro.models import swin
    with pytest.raises(ValueError, match="patch merging"):
        swin("tiny", image_size=112)       # stage res 7 odd for merging
    with pytest.raises(ValueError, match="divisible by"):
        swin("tiny", image_size=100)
    # valid combos build fine
    assert swin("tiny", image_size=128, window=4).num_nodes > 100
