"""Graph-pass tests: the rewrites must be value-preserving, verified
numerically against the reference executor."""
import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.executor import Executor
from repro.ir.graph import Graph
from repro.ir.passes import fold_batchnorm, fold_shape_constants, optimize_graph


def conv_bn_graph():
    b = GraphBuilder("g")
    x = b.input("x", (2, 3, 10, 10))
    y = b.conv(x, 6, 3, padding=1, name="conv")
    y = b.batchnorm(y, name="bn")
    y = b.relu(y)
    return b.finish(y)


def run(graph, seed=7):
    """Execute ``graph`` on its seeded weights, pinning them on the graph
    first so graphs rewritten from it afterwards share them (a runtime's
    own draw never lands on the graph)."""
    rng = np.random.default_rng(seed)
    for init in graph.initializers.values():
        if init.data is None:
            init.data = init.materialize(rng)
    feeds = {t.name: np.random.default_rng(0).normal(size=t.shape)
             .astype(np.float32) for t in graph.inputs}
    return next(iter(Executor(graph, seed=seed).run(feeds).values()))


class TestFoldBatchnorm:
    def test_bn_removed(self):
        g = conv_bn_graph()
        folded = fold_batchnorm(g)
        assert folded.op_type_histogram().get("BatchNormalization", 0) == 0
        assert g.op_type_histogram()["BatchNormalization"] == 1  # original kept

    def test_numerically_equivalent(self):
        g = conv_bn_graph()
        # materialize the original weights first so both graphs share them
        baseline = run(g)
        folded = fold_batchnorm(g)
        out = run(folded)
        np.testing.assert_allclose(out, baseline, rtol=1e-3, atol=1e-4)

    def test_multi_consumer_conv_not_folded(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        c = b.conv(x, 4, 3, padding=1, name="conv")
        bn = b.batchnorm(c, name="bn")
        other = b.relu(c)         # second consumer of the conv output
        y = b.add(bn, other)
        g = b.finish(y)
        folded = fold_batchnorm(g)
        assert folded.op_type_histogram()["BatchNormalization"] == 1

    def test_chain_of_blocks_all_folded(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 16, 16))
        y = x
        for i in range(3):
            y = b.conv(y, 4, 3, padding=1, name=f"c{i}")
            y = b.batchnorm(y, name=f"bn{i}")
            y = b.relu(y)
        g = b.finish(y)
        baseline = run(g)
        folded = fold_batchnorm(g)
        assert folded.op_type_histogram().get("BatchNormalization", 0) == 0
        np.testing.assert_allclose(run(folded), baseline, rtol=1e-3,
                                   atol=1e-4)

    @staticmethod
    def bn_chain_graph():
        """Two ``Conv -> BN -> BN -> Relu`` blocks with concrete weights."""
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = x
        for i in range(2):
            y = b.conv(y, 4, 3, padding=1, name=f"c{i}")
            y = b.batchnorm(y, name=f"bn{i}a")
            y = b.batchnorm(y, name=f"bn{i}b")
            y = b.relu(y)
        g = b.finish(y)
        rng = np.random.default_rng(3)
        for init in g.initializers.values():
            init.data = rng.normal(size=init.info.shape).astype(np.float32)
        return g

    def test_one_consumer_map_build_per_pass(self, monkeypatch):
        g = self.bn_chain_graph()
        calls = []
        consumer_map = Graph.consumer_map

        def counted(graph):
            calls.append(graph)
            return consumer_map(graph)
        monkeypatch.setattr(Graph, "consumer_map", counted)
        folded = fold_batchnorm(g)
        assert folded.op_type_histogram().get("BatchNormalization", 0) == 0
        assert len(calls) == 1

    def test_bn_chain_folds_one_pair_at_a_time(self):
        # the second BN folds into weights already folded (and rounded
        # to float32) with the first, under the twice-suffixed names
        g = self.bn_chain_graph()
        data = {name: init.data for name, init in g.initializers.items()}
        convs = [n for n in g.nodes if n.op_type == "Conv"]
        want = {}
        for conv in convs:
            w = data[conv.inputs[1]]
            bias = data[conv.inputs[2]] if len(conv.inputs) > 2 and \
                conv.inputs[2] else np.zeros(w.shape[0], np.float32)
            bn_node = g.consumers(conv.outputs[0])[0]
            for bn in (bn_node, g.consumers(bn_node.outputs[0])[0]):
                gamma, beta, mean, var = (data[t].astype(np.float64)
                                          for t in bn.inputs[1:5])
                inv_std = gamma / np.sqrt(var ** 2 + 1e-5)
                w = (w.astype(np.float64) * inv_std.reshape(-1, 1, 1, 1)
                     ).astype(np.float32)
                bias = ((bias.astype(np.float64) - mean) * inv_std + beta
                        ).astype(np.float32)
            want[f"{conv.inputs[1]}::folded::folded"] = (w, bias)
        folded = fold_batchnorm(g)
        assert folded.op_type_histogram().get("BatchNormalization", 0) == 0
        got = {n.inputs[1]: n for n in folded.nodes if n.op_type == "Conv"}
        assert set(got) == set(want)
        for w_name, (w, bias) in want.items():
            conv = got[w_name]
            assert folded.initializers[w_name].data.tobytes() == w.tobytes()
            assert folded.initializers[conv.inputs[2]].data.tobytes() == \
                bias.tobytes()

    def test_chain_folds_whatever_the_node_list_order(self):
        g = self.bn_chain_graph()
        g.nodes.reverse()
        g.invalidate()
        folded = fold_batchnorm(g)
        assert folded.op_type_histogram().get("BatchNormalization", 0) == 0


def run_graph(g, v):
    return next(iter(Executor(g).run({g.inputs[0].name: v}).values()))


class TestConstantFolding:
    def test_arith_on_initializers_folds(self):
        b = GraphBuilder("g")
        x = b.input("x", (3,))
        c1 = b.constant(np.asarray([1.0, 2.0, 3.0], np.float32))
        c2 = b.constant(np.asarray([10.0, 10.0, 10.0], np.float32))
        s = b.add(c1, c2)
        y = b.add(x, s)
        g = b.finish(y)
        folded = fold_shape_constants(g)
        assert folded.op_type_histogram()["Add"] == 1
        v = np.zeros(3, np.float32)
        np.testing.assert_array_equal(run_graph(folded, v), [11, 12, 13])

    def test_virtual_weights_not_materialized(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 2, 4))
        y = b.linear(x, 3, name="fc")
        g = b.finish(y)
        folded = fold_shape_constants(g)
        # MatMul has a virtual weight input: must stay
        assert folded.op_type_histogram().get("MatMul") == 1
        assert folded.initializers["fc.weight"].is_virtual

    def test_size_cap_respected(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        big = b.constant(np.zeros((1024,), np.float32))
        doubled = b.mul_scalar(big, 2.0)
        y = b.add(x, b.reduce_mean(doubled, axes=[0], keepdims=True))
        g = b.finish(y)
        capped = fold_shape_constants(g, max_elements=64)
        assert "Mul" in capped.op_type_histogram()
        folded = fold_shape_constants(g)
        assert "Mul" not in folded.op_type_histogram()


class TestPipeline:
    def test_optimize_preserves_semantics_on_real_block(self):
        g = conv_bn_graph()
        baseline = run(g)
        opt = optimize_graph(g, level=2)
        np.testing.assert_allclose(run(opt), baseline, rtol=1e-3, atol=1e-4)
        assert opt.op_type_histogram().get("BatchNormalization", 0) == 0

    def test_optimize_on_mobilenet_slice(self):
        from repro.models import mobilenet_v2
        g = mobilenet_v2(0.5, batch_size=1, image_size=32)
        baseline = run(g)
        opt = optimize_graph(g, level=2)
        assert opt.op_type_histogram().get("BatchNormalization", 0) == 0
        assert opt.num_nodes < g.num_nodes
        np.testing.assert_allclose(run(opt), baseline, rtol=2e-3, atol=1e-3)


# ----------------------------------------------------------------------
# the leveled plan-compiler pipeline (ISSUE 4)
# ----------------------------------------------------------------------
from repro.ir.fingerprint import graph_fingerprint  # noqa: E402
from repro.ir.passes import OPTIMIZE_LEVELS, plan_pipeline  # noqa: E402


class TestBatchnormFoldAlgebra:
    def test_folded_weights_match_hand_computation(self):
        g = conv_bn_graph()
        rng = np.random.default_rng(3)
        for init in g.initializers.values():
            init.data = rng.normal(
                size=init.info.shape).astype(np.float32)
        conv = next(n for n in g.nodes if n.op_type == "Conv")
        bn = next(n for n in g.nodes
                  if n.op_type == "BatchNormalization")
        w = g.initializers[conv.inputs[1]].data.astype(np.float64)
        gamma, beta, mean, var = (
            g.initializers[t].data.astype(np.float64)
            for t in bn.inputs[1:5])
        eps = bn.float_attr("epsilon", 1e-5)
        bias = (g.initializers[conv.inputs[2]].data.astype(np.float64)
                if len(conv.inputs) > 2 and conv.inputs[2]
                else np.zeros(w.shape[0]))
        # executor convention: normalize by sqrt(var^2 + eps)
        inv_std = gamma / np.sqrt(var ** 2 + eps)
        want_w = (w * inv_std.reshape(-1, 1, 1, 1)).astype(np.float32)
        want_b = ((bias - mean) * inv_std + beta).astype(np.float32)
        folded = fold_batchnorm(g)
        fconv = next(n for n in folded.nodes if n.op_type == "Conv")
        assert fconv.attrs["folded_bn"]
        np.testing.assert_array_equal(
            folded.initializers[fconv.inputs[1]].data, want_w)
        np.testing.assert_array_equal(
            folded.initializers[fconv.inputs[2]].data, want_b)


class TestOptimizeGraphPipeline:
    def test_level_zero_is_the_historical_pipeline(self):
        assert plan_pipeline(0) == ("fold_shape_constants",)

    def test_levels_grow_monotonically(self):
        assert set(plan_pipeline(1)) < set(plan_pipeline(2))
        assert "fold_batchnorm" not in plan_pipeline(1)
        assert "fold_batchnorm" in plan_pipeline(2)

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown optimization level"):
            plan_pipeline(4)
        with pytest.raises(ValueError, match="unknown optimization level"):
            optimize_graph(conv_bn_graph(), level=-1)

    def test_level_three_rewrites_match_level_two(self):
        # O3's extra work is the plan's subnormal flush; the graph
        # rewrite pipeline is O2's
        assert plan_pipeline(3) == plan_pipeline(2)

    def test_level_one_is_bit_exact(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv(x, 4, 3, padding=1, name="conv")
        y = b.silu(y)
        y = b.node("Neg", [y])
        y = b.node("Exp", [y])
        g = b.finish(y)
        baseline = run(g)
        opt = optimize_graph(g, level=1)
        np.testing.assert_array_equal(run(opt), baseline)

    def test_level_two_folds_bn_and_fuses(self):
        g = conv_bn_graph()
        baseline = run(g)
        opt = optimize_graph(g, level=2)
        hist = opt.op_type_histogram()
        assert "BatchNormalization" not in hist
        conv = next(n for n in opt.nodes if n.op_type == "Conv")
        assert "folded_bn" in conv.attrs
        np.testing.assert_allclose(run(opt), baseline, rtol=1e-3, atol=1e-4)

    def test_idempotent_at_every_level(self):
        from repro.models import mobilenet_v2
        g = mobilenet_v2(0.5, batch_size=1, image_size=32)
        run(g)                                  # materialize weights
        for level in OPTIMIZE_LEVELS:
            once = optimize_graph(g, level=level)
            twice = optimize_graph(once, level=level)
            assert graph_fingerprint(twice) == graph_fingerprint(once)


class TestGraphOutputContract:
    """Declared graph-output *names* are part of the graph's contract:
    no pass may rename or drop them.  The batchnorm case below was found
    by the differential fuzzer (``proof check``); its minimized twin
    lives in ``tests/check/corpus/``."""

    def test_bn_fold_keeps_declared_output_name(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv(x, 4, 3, padding=1, name="conv")
        y = b.batchnorm(y, name="bn")
        g = b.finish(y)                         # BN output IS the output
        baseline = run(g)
        folded = fold_batchnorm(g)
        assert folded.op_type_histogram().get("BatchNormalization", 0) == 0
        assert folded.output_names == g.output_names
        np.testing.assert_allclose(run(folded), baseline, rtol=1e-4,
                                   atol=1e-5)

    def test_full_pipeline_preserves_output_names(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv(x, 4, 3, padding=1, name="conv")
        y = b.batchnorm(y, name="bn")
        alias = b.node("Identity", [y])
        b.output(alias)
        g = b.finish(b.relu(y))
        for level in OPTIMIZE_LEVELS:
            opt = optimize_graph(g, level=level)
            assert set(opt.output_names) == set(g.output_names), level
