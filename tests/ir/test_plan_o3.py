"""O3 execution: O2's steps plus the calibrated subnormal flush.

O3 applies exactly O2's graph rewrites and runs the same steps, so
outputs must match O2 bit-for-bit on the same compiled graph (unless
the flush fires) and match O0 within the O2 tolerance budget.
"""
import threading

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.plan import _TINY, compile_plan
from repro.models.registry import build_model
from repro.obs import Tracer, use_tracer

from .test_plan_optimize import (bit_equal, feeds_for,
                                 install_benign_bn_stats)


def branchy_graph():
    """Two independent conv towers from one stem."""
    b = GraphBuilder("g")
    x = b.input("x", (1, 8, 16, 16))
    stem = b.conv(x, 8, 3, padding=1, name="stem")
    left = b.relu(b.conv(stem, 8, 3, padding=1, name="left"))
    right = b.relu(b.conv(stem, 8, 1, name="right"))
    return b.finish(b.add(left, right))


def mixed_graph():
    """Split/concat, pooling, gemm — exercises alias steps too."""
    b = GraphBuilder("g")
    x = b.input("x", (2, 8, 8, 8))
    halves = b.split(x, 2, axis=1)
    y = b.concat([b.relu(halves[0]), halves[1]], axis=1)
    y = b.maxpool(y, 2, 2)
    y = b.conv(y, 16, 1, name="pw")
    y = b.global_avgpool(y)
    y = b.reshape(y, (2, 16))
    w = b.weight((16, 16), name="w")
    return b.finish(b.gemm(y, w, trans_b=True))


class TestEquivalence:
    @pytest.mark.parametrize("make", [branchy_graph, mixed_graph])
    def test_bit_identical_to_o2_without_batchnorm(self, make):
        g = make()
        feeds = feeds_for(g)
        o2 = compile_plan(g, seed=0, optimize=2).run(feeds)
        o3 = compile_plan(g, seed=0, optimize=3).run(feeds)
        for name, want in o2.items():
            assert bit_equal(want, o3[name]), name

    def test_zoo_model_within_o2_tolerance_of_o0(self):
        g = build_model("mobilenetv2-05", batch_size=1, image_size=32)
        install_benign_bn_stats(g)
        feeds = feeds_for(g)
        ref = next(iter(compile_plan(g, seed=0, optimize=0)
                        .run(feeds).values()))
        out = next(iter(compile_plan(g, seed=0, optimize=3)
                        .run(feeds).values()))
        scale = float(np.max(np.abs(ref)))
        np.testing.assert_allclose(out, ref, rtol=1e-5,
                                   atol=1e-5 * max(scale, 1.0))

    def test_first_run_bit_identical_to_steady_state(self):
        # run 1 calibrates (and already applies) the subnormal flush,
        # so it must agree with every later run bit-for-bit
        g = mixed_graph()
        feeds = feeds_for(g)
        plan = compile_plan(g, optimize=3)
        first = plan.run(feeds)
        second = plan.run(feeds)
        for name, want in first.items():
            assert bit_equal(want, second[name]), name


class TestViews:
    def test_view_of_a_writer_output_matches_o2(self):
        # `flat` views `a` and is read only after three newer writer
        # outputs were computed
        b = GraphBuilder("g")
        x = b.input("x", (2, 4, 8, 8))
        a = b.relu(x)
        flat = b.reshape(a, (2, 256))
        y = x
        for _ in range(3):
            y = b.relu(b.add(y, x))
        g = b.finish(b.add(flat, b.reshape(y, (2, 256))))
        feeds = feeds_for(g)
        o2 = compile_plan(g, optimize=2).run(feeds)
        o3 = compile_plan(g, optimize=3).run(feeds)
        for name, want in o2.items():
            assert bit_equal(want, o3[name]), name


class TestFetch:
    def test_fetching_each_intermediate_matches_o2(self):
        g = mixed_graph()
        feeds = feeds_for(g)
        p2 = compile_plan(g, optimize=2)
        p3 = compile_plan(g, optimize=3)
        p3.run(feeds)
        names = [o for st in p3._steps for o in st.outputs
                 if o not in g.output_names]
        assert names
        for name in names:
            got = p3.run(feeds, fetch=[name])
            ref = p2.run(feeds, fetch=[name])
            assert bit_equal(ref[name], got[name]), name


class TestSubnormalFlush:
    def graph(self):
        b = GraphBuilder("g")
        x = b.input("x", (4, 64))
        y = b.mul_scalar(x, 1e-20)
        y = b.mul_scalar(y, 1e-20)   # ~1e-40: squarely subnormal
        return b.finish(y)

    def test_subnormal_outputs_are_flushed_to_zero(self):
        g = self.graph()
        feeds = feeds_for(g)
        ref = next(iter(compile_plan(g, optimize=0).run(feeds).values()))
        assert np.count_nonzero(ref), "reference should keep subnormals"
        plan = compile_plan(g, optimize=3)
        out = next(iter(plan.run(feeds).values()))
        assert any(st.ftz for st in plan._steps)
        assert np.count_nonzero(out) == 0
        # flush perturbation bounded by the largest subnormal — far
        # inside the O2/O3 tolerance budget
        assert float(np.max(np.abs(ref - out))) < float(_TINY)

    def test_flush_preserves_non_finite_payloads(self):
        g = self.graph()
        feeds = {"x": np.full((4, 64), np.nan, dtype=np.float32)}
        plan = compile_plan(g, optimize=3)
        # calibrate with subnormal-producing feeds so the flush arms
        plan.run(feeds_for(g))
        out = next(iter(plan.run(feeds).values()))
        assert np.isnan(out).all()

    def test_traced_run_uses_the_o3_kernels(self):
        # a traced run executes the same steps as an untraced one —
        # writers and flush included — and emits per-op spans
        g = self.graph()
        feeds = feeds_for(g)
        want = next(iter(compile_plan(g, optimize=3).run(feeds).values()))
        plan = compile_plan(g, optimize=3)
        with use_tracer(Tracer(plan_ops=True)) as tracer:
            got = next(iter(plan.run(feeds).values()))
        assert bit_equal(want, got)
        assert np.count_nonzero(got) == 0
        ops = [s.name for s in tracer.spans() if s.name.startswith("op.")]
        assert ops == [f"op.{st.node.op_type}" for st in plan._steps]


class TestConcurrentSharing:
    """One plan object shared by many threads must stay deterministic."""

    @pytest.mark.parametrize("level", [1, 3])
    def test_threads_sharing_one_plan_get_bit_identical_outputs(self, level):
        g = branchy_graph()
        plan = compile_plan(g, optimize=level)
        feed_sets = [feeds_for(g, seed=s) for s in range(4)]
        want = [plan.run(f) for f in feed_sets]
        results = [[None] * len(feed_sets) for _ in range(8)]
        errors = []

        def worker(slot):
            try:
                for i, f in enumerate(feed_sets):
                    results[slot][i] = plan.run(f)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for slot in range(8):
            for i, ref in enumerate(want):
                got = results[slot][i]
                for name in ref:
                    assert bit_equal(ref[name], got[name]), \
                        f"thread {slot}, feeds {i}, output {name!r}"
