"""Consistent-sharding guard (wall-clock-free).

The dispatcher's hash ring must shard keys disjointly and
deterministically and rebalance minimally, and the committed
``scaleout`` section of ``BENCH_service.json`` must stay above its
floor.  CI runs this file as one step.
"""
import json
from pathlib import Path

from repro.service import HashRing

BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_service.json"


def test_ring_shards_keys_disjointly_deterministically_and_minimally():
    keys = [f"fingerprint-{i:05d}" for i in range(2048)]
    ring = HashRing(range(4))
    owned = ring.ownership(keys)
    flat = sorted(k for ks in owned.values() for k in ks)
    assert flat == sorted(keys), "ownership is not a partition"
    assert [HashRing(range(4)).shard_for(k) for k in keys] == \
        [ring.shard_for(k) for k in keys], "ring not deterministic"
    before = {k: ring.shard_for(k) for k in keys}
    ring.remove(3)
    moved = sum(1 for k in keys
                if before[k] != 3 and ring.shard_for(k) != before[k])
    assert moved == 0, f"{moved} keys moved off surviving shards"
    share = max(len(ks) for ks in owned.values()) / len(keys)
    assert share < 0.45, f"worst shard owns {share:.0%} of keyspace"


def test_committed_scaleout_stays_above_its_floor():
    sec = json.loads(BENCH_PATH.read_text())["scaleout"]
    assert sec["speedup_4p_vs_1p_model"] >= sec["floor_4p_vs_1p"], \
        f"committed scaleout {sec['speedup_4p_vs_1p_model']}x " \
        f"below the {sec['floor_4p_vs_1p']}x floor"
