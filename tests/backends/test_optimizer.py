"""Fusion-planner tests: the graph optimizations real runtimes perform."""
import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.backends.optimizer import (MAX_GROUP_SIZE, FusionConfig,
                                      FusionGroup, FusionPlanner, GroupKind)
from repro.ir.builder import GraphBuilder


def plan_for(build, config=None):
    b = GraphBuilder("t")
    tensors = build(b)
    g = b.finish(tensors if isinstance(tensors, str) else tensors[-1])
    ar = AnalyzeRepresentation(g)
    groups = FusionPlanner(ar, config).plan()
    return g, ar, groups


def group_types(groups):
    return [[m.op_type for m in g.members] for g in groups]


def assert_covers_all(ar, groups):
    """Every op belongs to exactly one group."""
    seen = []
    for g in groups:
        seen.extend(id(m) for m in g.members)
    assert sorted(seen) == sorted(id(op) for op in ar.ops)


class TestConvEpilogue:
    def test_conv_bn_relu_fuses_with_bn_folded(self):
        def build(b):
            x = b.input("x", (1, 4, 8, 8))
            y = b.conv(x, 4, 3, padding=1, name="c")
            y = b.batchnorm(y, name="bn")
            return b.relu(y)
        g, ar, groups = plan_for(build)
        assert_covers_all(ar, groups)
        conv_groups = [gr for gr in groups if gr.kind == GroupKind.CONV]
        assert len(conv_groups) == 1
        assert [m.op_type for m in conv_groups[0].members] == \
            ["Conv", "BatchNormalization", "Relu"]
        assert conv_groups[0].folded == ["bn"]

    def test_residual_add_then_relu(self):
        def build(b):
            x = b.input("x", (1, 4, 8, 8))
            y = b.conv(x, 4, 3, padding=1)
            y = b.batchnorm(y)
            y = b.add(y, x)
            return b.relu(y)
        g, ar, groups = plan_for(build)
        conv_group = next(gr for gr in groups if gr.kind == GroupKind.CONV)
        assert [m.op_type for m in conv_group.members] == \
            ["Conv", "BatchNormalization", "Add", "Relu"]

    def test_silu_two_node_pattern_fuses(self):
        def build(b):
            x = b.input("x", (1, 4, 8, 8))
            y = b.conv(x, 4, 3, padding=1)
            y = b.batchnorm(y)
            return b.silu(y)
        g, ar, groups = plan_for(build)
        conv_group = next(gr for gr in groups if gr.kind == GroupKind.CONV)
        assert [m.op_type for m in conv_group.members] == \
            ["Conv", "BatchNormalization", "Sigmoid", "Mul"]

    def test_multi_consumer_blocks_fusion(self):
        def build(b):
            x = b.input("x", (1, 4, 8, 8))
            y = b.conv(x, 4, 3, padding=1, name="c")
            r = b.relu(y)
            b.output(y)       # conv output escapes -> relu cannot fuse
            return r
        g, ar, groups = plan_for(build)
        conv_group = next(gr for gr in groups if gr.kind == GroupKind.CONV)
        assert [m.op_type for m in conv_group.members] == ["Conv"]

    def test_moderate_config_skips_residual(self):
        def build(b):
            x = b.input("x", (1, 4, 8, 8))
            y = b.conv(x, 4, 3, padding=1)
            y = b.add(y, x)
            return b.relu(y)
        g, ar, groups = plan_for(build, FusionConfig.moderate())
        conv_group = next(gr for gr in groups if gr.kind == GroupKind.CONV)
        assert [m.op_type for m in conv_group.members] == ["Conv"]


class TestMatMulGroups:
    def test_matmul_bias_fuses(self):
        def build(b):
            x = b.input("x", (2, 5, 8))
            return b.linear(x, 4, name="fc")
        g, ar, groups = plan_for(build)
        mm = next(gr for gr in groups if gr.kind == GroupKind.MATMUL)
        assert [m.op_type for m in mm.members] == ["MatMul", "Add"]

    def test_matmul_activation_add_not_fused(self):
        """An Add whose other operand is an activation (not a weight)
        must not be treated as a bias."""
        def build(b):
            x = b.input("x", (2, 8))
            y = b.input("y", (2, 4))
            z = b.matmul(x, b.weight((8, 4)))
            return b.add(z, y)
        g, ar, groups = plan_for(build)
        mm = next(gr for gr in groups if gr.kind == GroupKind.MATMUL)
        assert [m.op_type for m in mm.members] == ["MatMul"]


class TestPointwiseRegions:
    def test_gelu_chain_becomes_one_region(self):
        def build(b):
            x = b.input("x", (2, 5, 8))
            y = b.linear(x, 8, name="fc")
            return b.gelu(y)
        g, ar, groups = plan_for(build)
        pw = [gr for gr in groups if gr.kind == GroupKind.POINTWISE]
        assert len(pw) == 1
        assert len(pw[0].members) == 5  # Mul, Erf, Add, Mul, Mul

    def test_cycle_guard_rejects_residual_through_matmul(self):
        """Fusing Add1 with Add2 would deadlock against the MatMul
        between them; the region must stop at Add1 (+LayerNorm)."""
        def build(b):
            x = b.input("x", (2, 4, 8))
            a1 = b.add(x, x)                       # Add1 (pointwise seed)
            ln = b.layernorm(a1)
            mm = b.matmul(ln, b.weight((8, 8)))
            a2 = b.add(a1, mm)                     # Add2: depends on MatMul
            return a2
        g, ar, groups = plan_for(
            build, FusionConfig(pointwise_includes_normalization=True))
        for gr in groups:
            types = [m.op_type for m in gr.members]
            if "MatMul" in types:
                continue
            # Add1 and Add2 must not share a group
            adds = [m for m in gr.members if m.op_type == "Add"]
            assert len(adds) <= 1

    def test_transpose_not_pointwise(self):
        def build(b):
            x = b.input("x", (2, 4, 8))
            y = b.relu(x)
            t = b.transpose(y, (0, 2, 1))
            return b.sigmoid(t)
        g, ar, groups = plan_for(build)
        for gr in groups:
            types = {m.op_type for m in gr.members}
            if "Transpose" in types:
                assert types == {"Transpose"}

    def test_max_group_size_respected(self):
        def build(b):
            x = b.input("x", (8,))
            y = x
            for _ in range(30):
                y = b.relu(y)
            return y
        g, ar, groups = plan_for(build)
        assert MAX_GROUP_SIZE == 24
        assert sorted(gr.size for gr in groups) == [6, 24]

    def test_noop_group_kind(self):
        def build(b):
            x = b.input("x", (2, 12))
            return b.reshape(x, (4, 6))
        g, ar, groups = plan_for(build)
        assert groups[-1].kind == GroupKind.NOOP


def test_full_model_coverage_and_order():
    """Every node of a real model lands in exactly one group, groups in
    topological order of their first member."""
    from repro.models import mobilenet_v2
    g = mobilenet_v2(1.0, batch_size=1)
    ar = AnalyzeRepresentation(g)
    groups = FusionPlanner(ar, FusionConfig.aggressive()).plan()
    assert_covers_all(ar, groups)
    order = {id(op): i for i, op in enumerate(ar.ops)}
    firsts = [order[id(gr.members[0])] for gr in groups]
    assert firsts == sorted(firsts)
