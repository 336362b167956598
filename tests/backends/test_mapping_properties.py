"""Property-based layer-mapping tests.

Hypothesis generates random CNN-ish model graphs (conv/BN/activation
chains with random residuals, pooling, channel splits/concats and
transposes); each is compiled with every simulated runtime, mapped by
PRoof, and the reconstruction is checked against the simulator's
ground truth — the strongest form of the §3.3 correctness claim.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.oarep import OptimizedAnalyzeRepresentation
from repro.backends import (OnnxRuntimeSim, OpenVINOSim, ReformatUnit,
                            TensorRTSim, map_layers)
from repro.hardware.specs import platform
from repro.ir.builder import GraphBuilder
from repro.ir.tensor import DataType

A100 = platform("a100")
XEON = platform("xeon6330")


@st.composite
def random_cnn(draw):
    """A random small CNN in the style of the zoo architectures."""
    rng_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    b = GraphBuilder(f"rand{rng_seed % 1000}")
    ch = int(rng.choice([4, 8, 16]))
    x = b.input("x", (2, 3, 16, 16))
    y = b.conv(x, ch, 3, padding=1, name="stem")
    n_blocks = draw(st.integers(1, 4))
    for i in range(n_blocks):
        kind = rng.integers(0, 5)
        with b.scope(f"b{i}"):
            if kind == 0:       # conv-bn-relu
                y = b.conv(y, ch, 3, padding=1, name="conv", bias=False)
                y = b.batchnorm(y, name="bn")
                y = b.relu(y)
            elif kind == 1:     # residual block
                z = b.conv(y, ch, 3, padding=1, name="conv")
                z = b.batchnorm(z, name="bn")
                y = b.add(z, y)
                y = b.relu(y)
            elif kind == 2:     # depthwise + pointwise with silu
                y = b.depthwise_conv(y, 3, padding=1, name="dw")
                y = b.pointwise_conv(y, ch, name="pw")
                y = b.silu(y)
            elif kind == 3:     # split / transform / concat + shuffle-ish
                lo, hi = b.split(y, 2, axis=1)
                hi = b.conv(hi, ch // 2, 1, name="branch")
                y = b.concat([lo, hi], axis=1)
                n_, c_, h_, w_ = b.shape(y)
                y = b.reshape(y, (n_, 2, c_ // 2, h_, w_))
                y = b.transpose(y, (0, 2, 1, 3, 4))
                y = b.reshape(y, (n_, c_, h_, w_))
            else:               # pool + pointwise chain
                y = b.maxpool(y, 2, 1, 0)
                y = b.sigmoid(y)
                y = b.mul_scalar(y, 0.5)
    y = b.global_avgpool(y)
    y = b.flatten(y)
    y = b.linear(y, 10, name="head")
    return b.finish(y)


def check_roundtrip(graph, backend, spec, precision):
    model = backend.compile(graph, spec, precision)
    arep = AnalyzeRepresentation(graph, precision)
    oar = OptimizedAnalyzeRepresentation(arep)
    mapped = map_layers(model, oar)
    # 1) one mapped entry per backend layer, truth reproduced exactly
    assert len(mapped) == len(model.layers)
    all_members = []
    for m in mapped:
        if m.layer.is_reformat:
            assert isinstance(m.unit, ReformatUnit)
            continue
        assert sorted(m.member_names) == sorted(m.layer.true_member_names)
        all_members.extend(m.member_names)
    # 2) no model op is attributed twice
    assert len(all_members) == len(set(all_members))
    # 3) fused totals never exceed the unfused Equation-1 sum
    fused = oar.total_cost()
    naive = arep.total_cost()
    assert fused.memory_bytes <= naive.memory_bytes * 1.001
    assert fused.flop <= naive.flop * 1.001
    return mapped


@given(random_cnn())
@settings(max_examples=20, deadline=None)
def test_trt_mapping_roundtrip_random_graphs(graph):
    check_roundtrip(graph, TensorRTSim(), A100, DataType.FLOAT16)


@given(random_cnn())
@settings(max_examples=15, deadline=None)
def test_ort_mapping_roundtrip_random_graphs(graph):
    check_roundtrip(graph, OnnxRuntimeSim(), XEON, DataType.FLOAT32)


@given(random_cnn())
@settings(max_examples=15, deadline=None)
def test_ov_mapping_roundtrip_random_graphs(graph):
    check_roundtrip(graph, OpenVINOSim(), XEON, DataType.FLOAT16)


@given(random_cnn())
@settings(max_examples=10, deadline=None)
def test_every_graph_node_attributed_once_trt(graph):
    """Coverage: every model node lands in exactly one backend layer
    (folded ops included as members)."""
    backend = TensorRTSim()
    model = backend.compile(graph, A100, DataType.FLOAT16)
    members = [m for l in model.execution_layers()
               for m in l.true_member_names]
    assert sorted(members) == sorted(n.name for n in graph.nodes)


@given(random_cnn())
@settings(max_examples=10, deadline=None)
def test_random_graphs_also_execute(graph):
    """The generated graphs are real models: the reference executor
    runs them and produces finite logits."""
    from repro.ir.executor import Executor
    out = Executor(graph).run({"x": np.random.default_rng(0).normal(
        size=(2, 3, 16, 16)).astype(np.float32)})
    logits = next(iter(out.values()))
    assert logits.shape == (2, 10)
    assert np.isfinite(logits).all()
