"""One seeded weight set per (graph, seed), shared by every runtime.

The executor, every ``compile_plan`` level, the counting executor and
``differential_check`` take their weights from
:func:`repro.ir.executor.seeded_weights`, so a graph's seeded stream is
drawn once however many runtimes are built over it.  Draws are counted
as :meth:`Initializer.materialize` calls made with an ``rng``.
"""
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.check.counting import CountingExecutor
from repro.check.fuzz import differential_check, make_feeds
from repro.ir import executor as executor_mod
from repro.ir.builder import GraphBuilder
from repro.ir.executor import Executor, seeded_weights
from repro.ir.plan import compile_plan
from repro.ir.shape_inference import infer_shapes
from repro.ir.tensor import DataType, Initializer, TensorInfo


def small_cnn():
    """Grouped and depthwise convs, BatchNorm (folded at O2), a Gemm and
    one initializer that carries its own data."""
    b = GraphBuilder("small_cnn")
    x = b.input("x", (2, 4, 10, 10))
    h = b.relu(b.batchnorm(b.conv(x, 8, 3, padding=1, groups=2, name="c1")))
    h = b.relu(b.depthwise_conv(h, 3, stride=2, padding=1, name="dw"))
    h = b.add(h, b.constant(np.full((1, 8, 1, 1), 0.25, np.float32),
                            name="shift"))
    y = b.linear(b.flatten(b.global_avgpool(h)), 5, name="fc")
    b.output(y)
    infer_shapes(b.graph)
    return b.graph


def stream(graph, seed):
    """The seeded stream walked by hand, with no shared set involved:
    what a fresh process draws."""
    rng = np.random.default_rng(seed)
    return {name: init.materialize(rng)
            for name, init in graph.initializers.items()}


@pytest.fixture
def draws(monkeypatch):
    """Empty the held set and count ``materialize(rng)`` calls by name."""
    monkeypatch.setattr(executor_mod, "_held_weights", None)
    counts = Counter()
    real = Initializer.materialize

    def counting(self, rng=None):
        if rng is not None:
            counts[self.info.name] += 1
        return real(self, rng)

    monkeypatch.setattr(Initializer, "materialize", counting)
    return counts


def test_executor_and_every_plan_level_draw_each_weight_once(draws):
    g = small_cnn()
    feeds = make_feeds(g)
    Executor(g).run(feeds)
    for level in range(4):
        compile_plan(g, optimize=level).run(feeds)
    CountingExecutor(g).run(feeds)
    assert draws == Counter(dict.fromkeys(g.initializers, 1))
    shared = seeded_weights(g, 0)
    for name, want in stream(g, 0).items():
        assert shared[name].tobytes() == want.tobytes()


def test_differential_check_draws_each_weight_once(draws):
    g = small_cnn()
    assert differential_check(g) == []
    assert draws == Counter(dict.fromkeys(g.initializers, 1))


def test_setting_data_forces_a_fresh_draw(draws):
    g = small_cnn()
    before = seeded_weights(g, 0)
    assert seeded_weights(g.copy(), 0) is before      # a copy shares it
    first = next(iter(g.initializers.values()))
    first.data = np.ones(first.info.shape, np.float32)
    after = seeded_weights(g, 0)
    assert after is not before
    assert draws == Counter({name: 2 for name in g.initializers})
    want = stream(g, 0)
    assert after.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(after[name], want[name])
    assert after[first.info.name] is first.data
    # the data-carrying initializer consumes no draw, so the stream
    # shifts: a stale set would hold different values downstream
    last = list(g.initializers)[-1]
    assert not np.array_equal(after[last], before[last])


def test_two_seeds_give_two_sets():
    g = small_cnn()
    feeds = make_feeds(g)
    ref0 = Executor(g, seed=0).run(feeds)
    ref1 = Executor(g, seed=1).run(feeds)
    plan1 = compile_plan(g, seed=1).run(feeds)
    plan0 = compile_plan(g, seed=0).run(feeds)
    for name in ref0:
        assert not np.array_equal(ref0[name], ref1[name])
        assert plan1[name].tobytes() == ref1[name].tobytes()
        assert plan0[name].tobytes() == ref0[name].tobytes()


def test_drawn_arrays_are_read_only():
    g = small_cnn()
    weights = seeded_weights(g, 0)
    for name, init in g.initializers.items():
        if init.data is None:
            assert not weights[name].flags.writeable
            with pytest.raises(ValueError):
                weights[name][...] = 0
        else:
            assert weights[name] is init.data
    with pytest.raises(TypeError):
        weights["x"] = np.zeros(1)


def test_held_set_is_released_before_the_next_draw(draws, monkeypatch):
    g = small_cnn()
    held = weakref.ref(seeded_weights(g, 0)["c1.weight"])
    alive_at_next_draw = []
    counting = Initializer.materialize

    def probe(self, rng=None):
        if rng is not None and not alive_at_next_draw:
            alive_at_next_draw.append(held() is not None)
        return counting(self, rng)

    monkeypatch.setattr(Initializer, "materialize", probe)
    seeded_weights(g, 1)
    assert alive_at_next_draw == [False]


def test_executor_keeps_its_set_until_the_graph_gains_initializers(draws):
    g = small_cnn()
    feeds = make_feeds(g)
    ex = Executor(g, seed=0)
    out = ex.run(feeds)
    seeded_weights(g, 1)                  # the held set moves to seed 1
    again = ex.run(feeds)
    assert draws == Counter(dict.fromkeys(g.initializers, 2))
    for name in out:
        assert out[name].tobytes() == again[name].tobytes()
    g.add_initializer(Initializer(TensorInfo("extra", (3,), DataType.FLOAT32)))
    ex.run(feeds)
    assert draws["extra"] == 1
    assert draws["c1.weight"] == 3
