"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q
"""
import json
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from harness import runner, schedule  # noqa: E402
from harness.oracle import DigestOracle  # noqa: E402
from harness.workloads import RunResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_same_schedule():
    assert schedule.service_schedule(7, 12.0) == \
        schedule.service_schedule(7, 12.0)
    assert schedule.service_schedule(7, 12.0) != \
        schedule.service_schedule(8, 12.0)
    rounds_a, rounds_b = (schedule.profile_rounds(3),
                          schedule.profile_rounds(3))
    assert [next(rounds_a) for _ in range(3)] == \
        [next(rounds_b) for _ in range(3)]
    plans_a, plans_b = schedule.plan_rounds(5), schedule.plan_rounds(5)
    assert [next(plans_a) for _ in range(3)] == \
        [next(plans_b) for _ in range(3)]


def test_service_schedule_offers_each_rung_rate():
    seconds = 12.0
    requests = schedule.service_schedule(1, seconds)
    rung_s = seconds / len(schedule.RUNG_RATES)
    seen = set()
    for rung, rate in enumerate(schedule.RUNG_RATES):
        in_rung = [r for r in requests if r.rung == rung]
        assert len(in_rung) == round(rate * rung_s)
        assert all(rung * rung_s <= r.due < (rung + 1) * rung_s
                   for r in in_rung)
        # new keys are cold (this rung's batches); later rungs repeat
        # keys of earlier ones
        new = {r.key for r in in_rung} - seen
        assert {k.batch for k in new} <= set(schedule.rung_batches(rung))
        if rung:
            assert any(r.key in seen for r in in_rung)
        seen |= new
    assert [r.due for r in requests] == sorted(r.due for r in requests)


def test_every_profile_round_draws_the_whole_pool():
    rounds = schedule.profile_rounds(11)
    for _ in range(4):
        models = {key.model for key in next(rounds)}
        assert models == set(schedule.PROFILE_POOL)
        assert "swin-small" in models


def test_oracle_covers_every_drawable_key():
    oracle = DigestOracle.load()
    assert {str(k) for k in schedule.drawable_keys()} <= set(oracle.digests)


def test_oracle_rejects_a_flipped_digest():
    oracle = DigestOracle.load()
    key, digest = next(iter(oracle.digests.items()))
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert oracle.verify(key, digest)
    assert not oracle.verify(key, flipped)
    assert not oracle.verify("unknown|trt-sim|fp16|1", digest)


def test_a_raising_or_timed_out_operation_makes_a_run_incorrect():
    assert RunResult(attempted=3).correct
    assert RunResult(attempted=3, refused=1).correct
    for fault in ("wrong", "errors", "timed_out"):
        res = RunResult(attempted=3, **{fault: 1})
        assert not res.correct, fault
        assert res.failed == 1 and res.completed == 2


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    emitted = list(runner.END_TO_END) + runner.per_layer_names()
    for name in listed + emitted + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(listed) == len(set(listed))
    json_e2e = [n for n, (_, in_json) in runner.END_TO_END.items() if in_json]
    assert [m["name"] for m in bench["end_to_end"]] == json_e2e
    assert [m["name"] for m in bench["per_layer"]] == \
        runner.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(runner.WORKLOADS)
