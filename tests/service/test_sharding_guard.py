"""Consistent-sharding guard (wall-clock-free).

The dispatcher's hash ring must shard keys disjointly and
deterministically and rebalance minimally, and the fleet must spread
the scale-out workload (64 mobilenetv2-05 graphs, batch sizes 1-64)
over 4 shards so that no shard owns more than 1/2.5 of the jobs.
"""
from collections import Counter

from repro.models.registry import build_model
from repro.obs.metrics import MetricsRegistry
from repro.service import HashRing
from repro.service.cache import ResultCache
from repro.service.dispatch import Dispatcher
from repro.service.fingerprint import ProfileRequest
from repro.service.queue import Job

#: jobs / busiest shard on a 4-shard fleet: the share of the workload
#: the busiest shard serializes caps the fleet's scale-out at this
FLOOR = 2.5


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


def test_scaleout_workload_spreads_over_four_shards():
    # routing only: the shard processes are never started
    fleet = Dispatcher(cache=ResultCache(), metrics=MetricsRegistry(),
                       processes=4)
    requests = [ProfileRequest(build_model("mobilenetv2-05", batch_size=b),
                               "trt-sim", "a100", "fp16")
                for b in range(1, 65)]
    jobs = [Job(f"j{i}", r.fingerprint(), r) for i, r in enumerate(requests)]
    owners = [fleet.shard_for(job) for job in jobs]
    assert owners == [fleet.shard_for(job) for job in jobs]
    assert set(owners) <= set(fleet.shards)
    counts = sorted(Counter(owners).values())
    assert len(jobs) / counts[-1] >= FLOOR, f"jobs per shard: {counts}"
