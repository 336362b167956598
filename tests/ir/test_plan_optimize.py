"""Optimized execution plans: fast kernels, equivalence, BN-folded step
parity with the backend fusion planner.

Level 1 must be bit-identical to the unoptimized plan (same seed, same
weights); level 2 adds BatchNorm folding and numerics-relaxed depthwise
kernels, so it is held to float tolerances instead.
"""
import numpy as np
import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.backends.optimizer import FusionConfig, FusionPlanner, GroupKind
from repro.ir.builder import GraphBuilder
from repro.ir.plan import ExecutionPlan, compile_plan
from repro.ir.tensor import DataType
from repro.models.registry import build_model


def feeds_for(graph, seed=5):
    rng = np.random.default_rng(seed)
    feeds = {}
    for t in graph.inputs:
        dt = t.dtype.to_numpy()
        if t.dtype.is_integer:
            feeds[t.name] = rng.integers(0, 100, size=t.shape, dtype=dt)
        else:
            feeds[t.name] = rng.standard_normal(t.shape).astype(dt)
    return feeds


def bit_equal(a, b):
    """Byte-level equality; NaN-safe, unlike ``(a == b).all()``."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def run_levels(graph, *levels, seed=0):
    feeds = feeds_for(graph)
    outs = []
    for lvl in levels:
        plan = compile_plan(graph, seed=seed, optimize=lvl)
        plan.run(feeds)                         # warm scratch arenas
        outs.append(next(iter(plan.run(feeds).values())))
    return outs


def install_benign_bn_stats(graph, seed=11):
    """Replace virtual BN statistics with well-conditioned values.

    Lazily-materialized stats are standard-normal; near-zero variance
    channels then make the (γ/√(σ⁴+ε)) scale huge and amplify float32
    rounding past any fixed tolerance.  Realistic stats keep the folded
    rewrite within ~1e-6 relative error.
    """
    rng = np.random.default_rng(seed)
    for node in graph.nodes:
        if node.op_type != "BatchNormalization":
            continue
        for idx, (lo, hi) in enumerate(
                [(0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5), (0.5, 1.5)]):
            init = graph.initializers[node.inputs[1 + idx]]
            init.data = rng.uniform(
                lo, hi, size=init.info.shape).astype(np.float32)


class TestLevelOneBitIdentity:
    def test_small_conv_model(self):
        g = build_model("mobilenetv2-05", batch_size=1, image_size=32)
        o0, o1 = run_levels(g, 0, 1)
        assert bit_equal(o0, o1)

    def test_transformer_block(self):
        g = build_model("vit-tiny", batch_size=1, image_size=64)
        o0, o1 = run_levels(g, 0, 1)
        assert bit_equal(o0, o1)

    def test_fused_elementwise_step(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 16))
        y = b.relu(x)
        y = b.tanh(y)
        y = b.mul_scalar(y, 0.5)
        g = b.finish(y)
        o0, o1 = run_levels(g, 0, 1)
        assert bit_equal(o0, o1)

    def test_pointwise_conv_fast_path(self):
        for stride in (1, 2):
            b = GraphBuilder("g")
            x = b.input("x", (2, 8, 12, 12))
            y = b.conv(x, 16, 1, stride=stride, name="pw")
            y = b.relu(y)
            g = b.finish(y)
            o0, o1 = run_levels(g, 0, 1)
            assert bit_equal(o0, o1), f"1x1 stride={stride} diverges"

    def test_gemm_operand_caching(self):
        b = GraphBuilder("g")
        x = b.input("x", (4, 32))
        w = b.weight((16, 32), name="w")
        c = b.weight((16,), name="c")
        y = b.gemm(x, w, c, trans_b=True)
        g = b.finish(b.relu(y))
        o0, o1 = run_levels(g, 0, 1)
        assert bit_equal(o0, o1)

    def test_repr_names_level(self):
        g = build_model("mobilenetv2-05", batch_size=1, image_size=32)
        assert "O2" in repr(compile_plan(g, optimize=2))


class TestLevelTwoEquivalence:
    def assert_close(self, ref, out):
        assert np.isfinite(ref).all()
        scale = float(np.max(np.abs(ref)))
        np.testing.assert_allclose(
            out, ref, rtol=1e-5, atol=1e-5 * max(scale, 1.0))

    def test_conv_bn_block(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 3, 16, 16))
        y = x
        for i in range(2):
            y = b.conv(y, 8, 3, padding=1, name=f"c{i}")
            y = b.batchnorm(y, name=f"bn{i}")
            y = b.relu(y)
        g = b.finish(y)
        feeds = feeds_for(g)
        # benign stats must exist on the source graph before either
        # plan snapshots it
        install_benign_bn_stats(g)
        p0 = compile_plan(g, seed=0, optimize=0)
        p2 = compile_plan(g, seed=0, optimize=2)
        ref = next(iter(p0.run(feeds).values()))
        out = next(iter(p2.run(feeds).values()))
        assert p2.num_fused_steps >= 2          # both convs BN-folded
        self.assert_close(ref, out)

    def test_depthwise_small_spatial_kernel(self):
        # 6x6 input, k3 s1 -> 4x4 output: the gather+GEMV branch
        b = GraphBuilder("g")
        x = b.input("x", (2, 8, 6, 6))
        y = b.depthwise_conv(x, 3, name="dw")
        g = b.finish(b.relu(y))
        o0, o2 = run_levels(g, 0, 2)
        self.assert_close(o0, o2)

    def test_depthwise_large_spatial_kernel(self):
        # 16x16 input -> 14x14 output: the per-tap MAC branch
        b = GraphBuilder("g")
        x = b.input("x", (1, 4, 16, 16))
        y = b.depthwise_conv(x, 3, name="dw")
        g = b.finish(b.relu(y))
        o0, o2 = run_levels(g, 0, 2)
        self.assert_close(o0, o2)

    def test_strided_depthwise(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 6, 15, 15))
        y = b.depthwise_conv(x, 3, stride=2, name="dw")
        g = b.finish(b.relu(y))
        o0, o2 = run_levels(g, 0, 2)
        self.assert_close(o0, o2)


class TestFusedStepParity:
    """The plan's fused-step count (its BN-folded convs) must agree with
    the backend fusion planner's conv groups that fold a BatchNorm —
    same structural decision, two representations.  The planner's conv
    pass runs before its matmul and pointwise passes, so its conv
    groups do not depend on them."""

    @pytest.mark.parametrize("key", ["resnet34", "mobilenetv2-10"])
    def test_counts_match_backend_planner(self, key):
        g = build_model(key, batch_size=1, image_size=64)
        plan = compile_plan(g, optimize=2)
        arep = AnalyzeRepresentation(g, DataType.FLOAT32)
        groups = FusionPlanner(arep, FusionConfig.moderate()).plan()
        backend_fused = sum(1 for grp in groups
                            if grp.kind == GroupKind.CONV and grp.folded)
        assert plan.num_fused_steps == backend_fused


class TestPlanConstruction:
    def test_invalid_level_rejected(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        g = b.finish(b.relu(x))
        with pytest.raises(ValueError, match="unknown optimization level"):
            compile_plan(g, optimize=7)

    def test_source_graph_not_mutated(self):
        g = build_model("mobilenetv2-05", batch_size=1, image_size=32)
        before = {n.op_type for n in g.nodes}
        n_before = len(g.nodes)
        compile_plan(g, optimize=2)
        assert len(g.nodes) == n_before
        assert {n.op_type for n in g.nodes} == before
        assert "BatchNormalization" in {n.op_type for n in g.nodes}

    def test_default_level_matches_explicit_zero(self):
        g = build_model("shufflenetv2-05", batch_size=1, image_size=32)
        feeds = feeds_for(g)
        default = compile_plan(g)
        explicit = compile_plan(g, optimize=0)
        assert bit_equal(next(iter(default.run(feeds).values())),
                         next(iter(explicit.run(feeds).values())))
        assert default.optimize_level == 0

    def test_plan_is_execution_plan(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        g = b.finish(b.relu(x))
        assert isinstance(compile_plan(g, optimize=1), ExecutionPlan)


class TestPlanRunsSourceOps:
    """Every level executes the model's own ONNX nodes: no compiled
    step has an op type the source graph lacks, and no compiled node
    carries an attribute its same-named source node lacks, except the
    ``folded_bn`` marker BatchNorm folding leaves on a conv."""

    @pytest.mark.parametrize("key", ["shufflenetv2-10", "efficientnet-b0",
                                     "vit-tiny"])
    def test_compiled_nodes_come_from_source(self, key):
        g = build_model(key, batch_size=1, image_size=64)
        source_types = {n.op_type for n in g.nodes}
        by_name = {n.name: n for n in g.nodes}
        for level in range(4):
            plan = compile_plan(g, optimize=level)
            for node in plan.plan_graph.nodes:
                assert node.op_type in source_types, (level, node.op_type)
                extra = set(node.attrs) - set(by_name[node.name].attrs)
                assert extra <= {"folded_bn"}, (level, node.name, extra)
