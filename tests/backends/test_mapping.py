"""Layer-mapping tests: PRoof must reconstruct every backend layer's
model-operator membership from the *exposed* information only.

The integration tests compare the mapper's output against the
simulators' ground truth over real zoo models for all three runtimes —
the central correctness claim of the paper's §3.3.
"""
import dataclasses

import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.oarep import MappingError, OptimizedAnalyzeRepresentation
from repro.backends import (OnnxRuntimeSim, OpenVINOSim, ReformatUnit,
                            TensorRTSim, map_layers, mapper_for)
from repro.backends.base import BackendLayer, LayerKind
from repro.backends.mapping import (LayerMapper, OnnxRuntimeMapper,
                                    OpenVINOMapper, TensorRTMapper,
                                    infer_folded)
from repro.hardware.specs import platform
from repro.ir.builder import GraphBuilder
from repro.ir.tensor import DataType
from repro.models import (mobilenet_v2, resnet50, shufflenet_v2,
                          shufflenet_v2_modified, vit)
from repro.models.registry import build_model

A100 = platform("a100")
XEON = platform("xeon6330")
NPU = platform("npu3720")


def assert_mapping_matches_truth(graph, backend, spec, precision):
    model = backend.compile(graph, spec, precision)
    arep = AnalyzeRepresentation(graph, precision)
    oar = OptimizedAnalyzeRepresentation(arep)
    mapped = map_layers(model, oar)
    assert len(mapped) == len(model.layers)
    for m in mapped:
        if m.layer.is_reformat:
            assert isinstance(m.unit, ReformatUnit)
            continue
        assert sorted(m.member_names) == sorted(m.layer.true_member_names), \
            f"layer {m.layer.name!r} mapped wrong"
        folded = getattr(m.unit, "folded", set())
        assert sorted(folded) == sorted(m.layer.true_folded_names)
    return mapped


@pytest.mark.parametrize("build", [
    lambda: resnet50(batch_size=2),
    lambda: mobilenet_v2(1.0, batch_size=2),
    lambda: shufflenet_v2(1.0, batch_size=2),
    lambda: shufflenet_v2_modified(1.0, batch_size=2),
    lambda: vit("tiny", batch_size=1),
])
def test_trt_mapping_reconstructs_truth(build):
    assert_mapping_matches_truth(build(), TensorRTSim(), A100,
                                 DataType.FLOAT16)


@pytest.mark.parametrize("build", [
    lambda: resnet50(batch_size=2),
    lambda: shufflenet_v2(1.0, batch_size=2),
    lambda: vit("tiny", batch_size=1),
])
def test_ort_mapping_reconstructs_truth(build):
    assert_mapping_matches_truth(build(), OnnxRuntimeSim(), XEON,
                                 DataType.FLOAT32)


@pytest.mark.parametrize("build", [
    lambda: mobilenet_v2(1.0, batch_size=2),
    lambda: shufflenet_v2(1.0, batch_size=2),
])
def test_ov_mapping_reconstructs_truth(build):
    assert_mapping_matches_truth(build(), OpenVINOSim(), NPU,
                                 DataType.FLOAT16)


def test_mapper_registry():
    assert isinstance(mapper_for("trt-sim"), TensorRTMapper)
    assert isinstance(mapper_for("ort-sim"), OnnxRuntimeMapper)
    assert isinstance(mapper_for("ov-sim"), OpenVINOMapper)


def test_infer_folded_detects_bn_after_conv():
    b = GraphBuilder("g")
    x = b.input("x", (1, 4, 8, 8))
    c = b.conv(x, 4, 3, padding=1, name="conv")
    bn = b.batchnorm(c, name="bn")
    r = b.relu(bn)
    g = b.finish(r)
    ar = AnalyzeRepresentation(g)
    ops = [ar.op_by_name("conv"), ar.op_by_name("bn"),
           ar.op_by_output(r)]
    assert infer_folded(ops) == ["bn"]


def test_infer_folded_ignores_standalone_bn():
    b = GraphBuilder("g")
    x = b.input("x", (1, 4, 8, 8))
    bn = b.batchnorm(x, name="bn")
    r = b.relu(bn)
    g = b.finish(r)
    ar = AnalyzeRepresentation(g)
    assert infer_folded(list(ar.ops)) == []


class TestErrorPaths:
    def _simple_oar(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 4))
        y = b.relu(x)
        g = b.finish(y)
        ar = AnalyzeRepresentation(g)
        return OptimizedAnalyzeRepresentation(ar), x, y

    def test_reformat_with_bad_io_count(self):
        oar, x, y = self._simple_oar()
        layer = BackendLayer("ref", kind=LayerKind.REFORMAT,
                             inputs=["a", "b"], outputs=["c"])
        with pytest.raises(MappingError, match="1 input/output"):
            LayerMapper().map_reformat(layer, oar)

    def test_reformat_unresolvable(self):
        oar, x, y = self._simple_oar()
        layer = BackendLayer("ref", kind=LayerKind.REFORMAT,
                             inputs=["ghost1"], outputs=["ghost2"])
        with pytest.raises(MappingError, match="maps to a model tensor"):
            LayerMapper().map_reformat(layer, oar)

    def test_execution_layer_with_no_ops(self):
        oar, x, y = self._simple_oar()
        layer = BackendLayer("empty", inputs=[y], outputs=[y])
        with pytest.raises(MappingError, match="no model operators"):
            LayerMapper().map_execution(layer, oar)

    def test_trt_unknown_member_name(self):
        oar, x, y = self._simple_oar()
        layer = BackendLayer("bad", inputs=[x], outputs=[y],
                             exposed_member_names=["does-not-exist"])
        with pytest.raises(MappingError, match="unknown model operator"):
            TensorRTMapper().map_execution(layer, oar)

    def test_ov_friendly_name_cross_check(self):
        oar, x, y = self._simple_oar()
        layer = BackendLayer("liar", inputs=[x], outputs=[y],
                             exposed_member_names=["liar"])
        with pytest.raises(MappingError, match="friendly name"):
            OpenVINOMapper().map_execution(layer, oar)


def test_reformat_unit_cost_is_two_copies():
    from repro.ir.tensor import TensorInfo
    unit = ReformatUnit("r", TensorInfo("t", (4, 4), DataType.FLOAT32))
    cost = unit.cost(DataType.FLOAT16)
    assert cost.read_bytes == 4 * 4 * 2
    assert cost.write_bytes == 4 * 4 * 2
    assert cost.flop == 0
    assert unit.member_nodes == []


def test_bidirectional_lookup_via_report():
    """Figure 3: model layer -> backend layer and back."""
    from repro.core.profiler import Profiler
    g = resnet50(batch_size=2)
    report = Profiler("trt-sim", A100, "fp16").profile(g)
    conv_name = next(n.name for n in g.nodes if n.op_type == "Conv")
    layer = report.layer_by_model_op(conv_name)
    assert layer is not None
    assert conv_name in layer.model_layers
    assert report.layer_by_model_op("no-such-layer") is None


def _mapped_names(model, graph):
    oar = OptimizedAnalyzeRepresentation(
        AnalyzeRepresentation(graph, model.precision))
    return [(m.member_names, sorted(getattr(m.unit, "folded", ())))
            for m in map_layers(model, oar)]


@pytest.mark.parametrize("backend,spec", [
    (TensorRTSim, A100), (OnnxRuntimeSim, XEON), (OpenVINOSim, XEON)])
@pytest.mark.parametrize("key", ["resnet50", "mobilenetv2-10", "vit-tiny"])
def test_mapping_reads_no_ground_truth(backend, spec, key):
    """Blanking every simulation-truth field leaves the mapping as it
    is: layer mapping sees only what a real runtime exposes."""
    graph = build_model(key, batch_size=1)
    model = backend().compile(graph, spec, DataType.FLOAT16)
    intact = _mapped_names(model, graph)
    blind = dataclasses.replace(model, truth_units=None, layers=[
        dataclasses.replace(layer, true_member_names=[],
                            true_folded_names=[], true_alias=None)
        for layer in model.layers])
    assert _mapped_names(blind, graph) == intact
