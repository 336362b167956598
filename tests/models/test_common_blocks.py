"""Tests for the shared model-zoo building blocks."""
import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.executor import Executor
from repro.models.common import (channel_shuffle, conv_bn_act,
                                 make_divisible, mlp_block,
                                 multi_head_attention, patch_embed,
                                 se_block, transformer_block)


class TestMakeDivisible:
    @pytest.mark.parametrize("value,divisor,expected", [
        (32, 8, 32), (33, 8, 32), (37, 8, 40), (16.0, 8, 16),
        (12, 8, 16), (3, 8, 8),
    ])
    def test_values(self, value, divisor, expected):
        assert make_divisible(value, divisor) == expected

    def test_never_below_90_percent(self):
        for v in range(8, 300, 7):
            assert make_divisible(v) >= 0.9 * v


class TestConvBnAct:
    @pytest.mark.parametrize("act", ["relu", "relu6", "silu", "hardswish",
                                     "none"])
    def test_activations(self, act):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = conv_bn_act(b, x, 8, 3, act=act, name="c")
        g = b.finish(y)
        assert g.tensor(y).shape == (1, 8, 8, 8)

    def test_unknown_activation(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        with pytest.raises(ValueError, match="unknown activation"):
            conv_bn_act(b, x, 8, 3, act="swishx")

    def test_conv_has_no_bias(self):
        """BN provides the shift: the conv must be bias-free."""
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = conv_bn_act(b, x, 8, 3, name="c")
        g = b.finish(y)
        conv = next(n for n in g.nodes if n.op_type == "Conv")
        assert len(conv.present_inputs) == 2


class TestSeBlock:
    def test_shape_preserved_and_structure(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 16, 8, 8))
        y = se_block(b, x, 4, name="se")
        g = b.finish(y)
        assert g.tensor(y).shape == (2, 16, 8, 8)
        hist = g.op_type_histogram()
        assert hist["GlobalAveragePool"] == 1
        assert hist["Sigmoid"] >= 1

    def test_gating_bounds_output(self):
        """SE multiplies by a sigmoid gate: |out| <= |in| elementwise."""
        b = GraphBuilder("g")
        x = b.input("x", (1, 8, 4, 4))
        y = se_block(b, x, 2)
        g = b.finish(y)
        v = np.random.default_rng(0).normal(size=(1, 8, 4, 4)).astype(np.float32)
        out = Executor(g).run({"x": v})[y]
        assert (np.abs(out) <= np.abs(v) + 1e-6).all()


class TestChannelShuffle:
    def test_exports_three_nodes(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 8, 4, 4))
        y = channel_shuffle(b, x, 2)
        g = b.finish(y)
        assert g.op_type_histogram() == {"Reshape": 2, "Transpose": 1}

    def test_matches_reference_permutation(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 6, 2, 2))
        y = channel_shuffle(b, x, 2)
        g = b.finish(y)
        v = np.arange(24, dtype=np.float32).reshape(1, 6, 2, 2)
        out = Executor(g).run({"x": v})[y]
        want = v.reshape(1, 2, 3, 2, 2).transpose(0, 2, 1, 3, 4)\
                .reshape(1, 6, 2, 2)
        np.testing.assert_array_equal(out, want)

    def test_involution_for_two_groups_on_four_channels(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 4, 2, 2))
        y = channel_shuffle(b, x, 2)
        y = channel_shuffle(b, y, 2)
        g = b.finish(y)
        v = np.arange(16, dtype=np.float32).reshape(1, 4, 2, 2)
        out = Executor(g).run({"x": v})[y]
        np.testing.assert_array_equal(out, v)


class TestAttention:
    def test_mha_shape(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 10, 32))
        y = multi_head_attention(b, x, 32, 4, name="attn")
        g = b.finish(y)
        assert g.tensor(y).shape == (2, 10, 32)

    def test_mha_rejects_indivisible_heads(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 10, 32))
        with pytest.raises(ValueError, match="divisible"):
            multi_head_attention(b, x, 32, 5)

    def test_mha_rows_attend_to_something(self):
        """Attention output is a convex mix of V rows: executing with a
        constant V gives exactly that constant."""
        b = GraphBuilder("g")
        x = b.input("x", (1, 6, 16))
        y = multi_head_attention(b, x, 16, 2, name="attn")
        g = b.finish(y)
        out = Executor(g).run({"x": np.random.default_rng(0).normal(
            size=(1, 6, 16)).astype(np.float32)})[y]
        assert np.isfinite(out).all()

    def test_transformer_block_shape_and_structure(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 5, 24))
        y = transformer_block(b, x, 24, 3, name="blk")
        g = b.finish(y)
        assert g.tensor(y).shape == (2, 5, 24)
        hist = g.op_type_histogram()
        assert hist["LayerNormalization"] == 2
        assert hist["Softmax"] == 1
        assert hist["Erf"] == 1   # the exported GELU


class TestPatchEmbed:
    def test_token_count(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 3, 32, 32))
        y = patch_embed(b, x, patch=8, dim=48)
        g = b.finish(y)
        assert g.tensor(y).shape == (2, 16, 48)

    def test_mlp_block_hidden_dim(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 4, 16))
        y = mlp_block(b, x, hidden=64, name="mlp")
        g = b.finish(y)
        assert g.tensor(y).shape == (1, 4, 16)
        # the hidden projection exists
        weights = [i for i in g.initializers.values()
                   if i.info.shape == (16, 64)]
        assert weights
