"""Graph-pass tests: the rewrites must be value-preserving, verified
numerically against the reference executor."""
import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.executor import Executor, execute
from repro.ir.graph import Graph
from repro.ir.passes import (eliminate_dead_nodes, eliminate_identities,
                             fold_batchnorm, fold_shape_constants,
                             optimize_graph)


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


class TestEliminateIdentities:
    def test_identity_and_dropout_removed(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        y = b.node("Identity", [x])
        y = b.relu(y)
        y = b.node("Dropout", [y])
        y = b.node("Neg", [y])
        g = b.finish(y)
        slim = eliminate_identities(g)
        hist = slim.op_type_histogram()
        assert "Identity" not in hist and "Dropout" not in hist
        v = np.asarray([-1, 2, -3, 4], np.float32)
        np.testing.assert_array_equal(run_graph(slim, v), run_graph(g, v))

    def test_identity_directly_to_output_kept(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        y = b.node("Identity", [x])
        g = b.finish(y)
        slim = eliminate_identities(g)
        slim.validate()
        v = np.ones(4, np.float32)
        np.testing.assert_array_equal(run_graph(slim, v), v)


def run_graph(g, v):
    return next(iter(execute(g, {g.inputs[0].name: v}).values()))


class TestDeadNodeElimination:
    def test_unused_branch_removed(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        live = b.relu(x)
        dead = b.sigmoid(x)
        dead = b.node("Neg", [dead])   # whole branch unused
        g = b.finish(live)
        slim = eliminate_dead_nodes(g)
        hist = slim.op_type_histogram()
        assert hist == {"Relu": 1}

    def test_nothing_removed_when_all_live(self):
        g = conv_bn_graph()
        assert len(eliminate_dead_nodes(g)) == len(g)


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
from repro.ir.passes import (OPTIMIZE_LEVELS,  # noqa: E402
                             eliminate_common_subexpressions,
                             fuse_conv_activations, fuse_elementwise_chains,
                             plan_pipeline)


class TestFuseConvActivations:
    def test_relu_absorbed_bit_identically(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv(x, 4, 3, padding=1, name="conv")
        y = b.relu(y)
        g = b.finish(y)
        baseline = run(g)                       # materializes weights
        fused = fuse_conv_activations(g)
        assert "Relu" not in fused.op_type_histogram()
        conv = next(n for n in fused.nodes if n.op_type == "Conv")
        assert conv.attrs["fused_ops"] == ["Relu"]
        np.testing.assert_array_equal(run(fused), baseline)

    def test_relu6_clip_absorbed(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv(x, 4, 3, padding=1, name="conv")
        y = b.relu6(y)
        g = b.finish(y)
        baseline = run(g)
        fused = fuse_conv_activations(g)
        assert "Clip" not in fused.op_type_histogram()
        conv = next(n for n in fused.nodes if n.op_type == "Conv")
        assert len(conv.attrs["fused_ops"]) == 1
        np.testing.assert_array_equal(run(fused), baseline)

    def test_two_node_silu_pattern_absorbed(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv(x, 4, 3, padding=1, name="conv")
        y = b.silu(y)                           # Mul(x, Sigmoid(x))
        g = b.finish(y)
        baseline = run(g)
        fused = fuse_conv_activations(g)
        hist = fused.op_type_histogram()
        assert "Sigmoid" not in hist and "Mul" not in hist
        conv = next(n for n in fused.nodes if n.op_type == "Conv")
        assert len(conv.attrs["fused_ops"]) == 1
        np.testing.assert_array_equal(run(fused), baseline)

    def test_graph_output_blocks_absorption(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        c = b.conv(x, 4, 3, padding=1, name="conv")
        b.output(c)                             # conv result is observable
        y = b.relu(c)
        g = b.finish(y)
        fused = fuse_conv_activations(g)
        assert fused.op_type_histogram()["Relu"] == 1

    def test_multi_consumer_blocks_absorption(self):
        b = GraphBuilder("g")
        x = b.input("x", (1, 3, 8, 8))
        c = b.conv(x, 4, 3, padding=1, name="conv")
        y = b.add(b.relu(c), b.tanh(c))         # two non-SiLU consumers
        g = b.finish(y)
        fused = fuse_conv_activations(g)
        assert fused.op_type_histogram()["Relu"] == 1
        assert "fused_ops" not in next(
            n for n in fused.nodes if n.op_type == "Conv").attrs

    def test_one_consumer_map_build_per_pass(self, monkeypatch):
        b = GraphBuilder("g")
        y = b.input("x", (1, 3, 8, 8))
        for i, act in enumerate((b.relu, b.silu, b.relu6, b.relu)):
            y = act(b.conv(y, 4, 3, padding=1, name=f"conv{i}"))
        g = b.finish(y)
        baseline = run(g)
        builds = []
        consumer_map = Graph.consumer_map

        def counted(graph):
            if graph._consumer_cache is None:
                builds.append(graph)
            return consumer_map(graph)
        monkeypatch.setattr(Graph, "consumer_map", counted)
        fused = fuse_conv_activations(g)
        assert set(fused.op_type_histogram()) == {"Conv"}
        assert len(builds) == 1
        np.testing.assert_array_equal(run(fused), baseline)


class TestFuseElementwiseChains:
    def chain_graph(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 8))
        y = b.relu(x)
        y = b.tanh(y)
        y = b.mul_scalar(y, 2.0)
        return b.finish(y)

    def test_chain_collapses_to_one_node(self):
        g = self.chain_graph()
        v = np.random.default_rng(0).normal(size=(2, 8)).astype(np.float32)
        baseline = run_graph(g, v)
        fused = fuse_elementwise_chains(g)
        hist = fused.op_type_histogram()
        assert hist.get("FusedElementwise") == 1
        assert "Relu" not in hist and "Tanh" not in hist and "Mul" not in hist
        node = next(n for n in fused.nodes
                    if n.op_type == "FusedElementwise")
        assert node.attrs["fused_count"] == 3
        assert len(node.attrs["fused_ops"]) == 3
        np.testing.assert_array_equal(run_graph(fused, v), baseline)

    def test_single_op_left_alone(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        g = b.finish(b.relu(x))
        fused = fuse_elementwise_chains(g)
        assert fused.op_type_histogram() == {"Relu": 1}

    def test_intermediate_graph_output_breaks_chain(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        mid = b.relu(x)
        b.output(mid)                           # observable intermediate
        g = b.finish(b.tanh(mid))
        fused = fuse_elementwise_chains(g)
        assert "FusedElementwise" not in fused.op_type_histogram()

    def test_idempotent(self):
        g = fuse_elementwise_chains(self.chain_graph())
        again = fuse_elementwise_chains(g)
        assert graph_fingerprint(again) == graph_fingerprint(g)


class TestCommonSubexpressionElimination:
    def test_duplicate_nodes_merge(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        a1 = b.relu(x)
        a2 = b.relu(x)                          # identical computation
        g = b.finish(b.add(a1, a2))
        v = np.random.default_rng(0).normal(size=(4,)).astype(np.float32)
        baseline = run_graph(g, v)
        slim = eliminate_common_subexpressions(g)
        assert slim.op_type_histogram()["Relu"] == 1
        np.testing.assert_array_equal(run_graph(slim, v), baseline)

    def test_output_producers_survive(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        a1 = b.relu(x)
        a2 = b.relu(x)
        b.output(a1)
        g = b.finish(a2)                        # both duplicates observable
        slim = eliminate_common_subexpressions(g)
        assert slim.op_type_histogram()["Relu"] == 2

    def test_attribute_mismatch_blocks_merge(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 3, 4))
        f1 = b.flatten(x, axis=1)
        f2 = b.flatten(x, axis=2)               # same op, different attrs
        g = b.finish(f1, f2)
        slim = eliminate_common_subexpressions(g)
        assert slim.op_type_histogram()["Flatten"] == 2


class TestMultiOutputDce:
    def test_partially_consumed_split_stays(self):
        b = GraphBuilder("g")
        x = b.input("x", (2, 8))
        lo, hi = b.split(x, 2, axis=1)
        dead = b.sigmoid(hi)
        dead = b.node("Neg", [dead])            # whole branch unused
        g = b.finish(b.relu(lo))
        slim = eliminate_dead_nodes(g)
        hist = slim.op_type_histogram()
        assert hist == {"Split": 1, "Relu": 1}


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
        assert len(opt) < len(g)
        np.testing.assert_array_equal(run(opt), baseline)

    def test_level_two_folds_bn_and_fuses(self):
        g = conv_bn_graph()
        baseline = run(g)
        opt = optimize_graph(g, level=2)
        hist = opt.op_type_histogram()
        assert "BatchNormalization" not in hist
        assert "Relu" not in hist               # fused into the conv
        conv = next(n for n in opt.nodes if n.op_type == "Conv")
        assert conv.attrs["fused_ops"] == ["Relu"]
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
    no pass may rename or drop them.  The identity and batchnorm cases
    below were found by the differential fuzzer (``proof check``) —
    their minimized twins live in ``tests/check/corpus/``."""

    def test_identity_alias_of_shared_tensor_survives(self):
        # the Identity's source feeds another consumer AND the Identity
        # output is itself a declared graph output; eliminating the node
        # used to rename (i.e. drop) that output
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        mid = b.relu(x)
        alias = b.node("Identity", [mid])
        neg = b.node("Neg", [mid])
        b.output(alias)
        g = b.finish(neg)
        slim = eliminate_identities(g)
        assert set(slim.output_names) == set(g.output_names)
        v = np.asarray([-1, 2, -3, 4], np.float32)
        want = execute(g, {"x": v})
        have = execute(slim, {"x": v})
        for name in g.output_names:
            np.testing.assert_array_equal(have[name], want[name])

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

    def test_cse_executes_both_duplicate_outputs(self):
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        a1 = b.relu(x)
        a2 = b.relu(x)
        b.output(a1)
        g = b.finish(a2)
        slim = eliminate_common_subexpressions(g)
        assert set(slim.output_names) == set(g.output_names)
        v = np.asarray([-1, 2, -3, 4], np.float32)
        outs = execute(slim, {"x": v})
        for name in g.output_names:
            np.testing.assert_array_equal(outs[name], np.maximum(v, 0))

    def test_dce_keeps_interior_graph_output(self):
        # an intermediate tensor promoted to graph output keeps its
        # producer alive even though it is also consumed downstream
        b = GraphBuilder("g")
        x = b.input("x", (4,))
        mid = b.relu(x)
        b.output(mid)
        g = b.finish(b.sigmoid(mid))
        slim = eliminate_dead_nodes(g)
        assert slim.op_type_histogram() == {"Relu": 1, "Sigmoid": 1}
        assert set(slim.output_names) == set(g.output_names)

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
