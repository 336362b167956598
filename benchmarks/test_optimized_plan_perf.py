"""Optimized-plan perf smoke: O0 -> O2 speedup floor on shufflenetv2-10.

A conservative floor so shared CI runners never flake.  The two levels
are timed in interleaved pairs (min of 15 runs each) after a second of
untimed pairs, so host drift during the measurement slows both sides
alike instead of deciding the ratio.  Correctness rides along: the
level-2 pass pipeline is idempotent, a level-1 plan stays
bit-identical to the unoptimized plan, and an O3 plan (O2's steps +
calibrated subnormal flush) builds, runs and stays within the O2
tolerance budget of O0.

The floor is a wall-clock ratio, so this file lives outside the tier-1
suite.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_optimized_plan_perf.py -q
"""
import time

import numpy as np
import pytest

from repro.check.fuzz import O2_ATOL, O2_RTOL, _tolerance_equal
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.passes import optimize_graph
from repro.ir.plan import compile_plan
from repro.models.registry import build_model

FLOOR = 1.2


@pytest.fixture(scope="module")
def graph():
    return build_model("shufflenetv2-10", batch_size=1, image_size=64)


@pytest.fixture(scope="module")
def feeds(graph):
    rng = np.random.default_rng(5)
    return {t.name: rng.standard_normal(t.shape).astype(t.dtype.to_numpy())
            for t in graph.inputs}


@pytest.fixture(scope="module")
def plans(graph):
    return {lvl: compile_plan(graph, optimize=lvl) for lvl in (0, 1, 2)}


@pytest.fixture(scope="module")
def reference(plans, feeds):
    return plans[0].run(feeds)


def interleaved_mins(slow, fast, feeds, pairs=15, warmup_seconds=1.0):
    """Best run time of each plan over ``pairs`` back-to-back pairs,
    alternating which plan runs first.

    Untimed pairs run for ``warmup_seconds`` first: on a shared virtual
    host the first ~0.7 s of work after an idle spell is throttled into
    scheduler-quantum-sized slices, which makes both plans take equally
    long and reads as a 1.0x speedup.
    """
    deadline = time.perf_counter() + warmup_seconds
    while time.perf_counter() < deadline:
        slow.run(feeds)
        fast.run(feeds)
    best = {slow: float("inf"), fast: float("inf")}
    for i in range(pairs):
        for plan in ((slow, fast) if i % 2 == 0 else (fast, slow)):
            t0 = time.perf_counter()
            plan.run(feeds)
            best[plan] = min(best[plan], time.perf_counter() - t0)
    return best[slow], best[fast]


def test_level_two_pipeline_is_idempotent(graph):
    once = optimize_graph(graph, level=2)
    twice = optimize_graph(once, level=2)
    assert graph_fingerprint(twice) == graph_fingerprint(once), \
        "optimize_graph is not idempotent at level 2"


def test_level_one_plan_is_bit_identical(plans, feeds, reference):
    out = plans[1].run(feeds)
    for name, want in reference.items():
        got = out[name]
        assert got.dtype == want.dtype and \
            got.tobytes() == want.tobytes(), \
            f"O1 plan not bit-identical on {name}"


def test_level_two_speedup_floor(plans, feeds, reference):
    plans[2].run(feeds)    # the O0 plan is already warm from `reference`
    o0, o2 = interleaved_mins(plans[0], plans[2], feeds)
    speedup = o0 / o2
    assert speedup >= FLOOR, \
        f"O2 speedup {speedup:.2f}x below the {FLOOR}x smoke floor"


def test_level_three_within_o2_tolerance(graph, feeds, reference):
    # repro.check's _tolerance_equal is the arbiter, exactly as in the
    # differential harness
    p3 = compile_plan(graph, optimize=3)
    p3.run(feeds)          # run 1 calibrates the flush
    out3 = p3.run(feeds)
    for name, want in reference.items():
        assert _tolerance_equal(want, out3[name], O2_RTOL, O2_ATOL), \
            f"O3 plan outside the O2 tolerance budget on {name}"
