"""Result-cache tests: LRU accounting, byte budgets, the disk tier."""
import threading

import pytest

from repro.ir.fingerprint import report_digest
from repro.service import cache as result_cache
from repro.service.cache import ResultCache


def test_roundtrip_and_stats(make_report):
    cache = ResultCache()
    report = make_report("a")
    assert cache.get("k1") is None
    cache.put("k1", report)
    assert cache.get("k1") is report
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.insertions) == (1, 1, 1)
    assert stats.hit_ratio == 0.5
    assert stats.bytes > 0


def test_entry_bound_evicts_lru(make_report):
    cache = ResultCache(max_entries=2)
    cache.put("a", make_report("a"))
    cache.put("b", make_report("b"))
    cache.get("a")                      # refresh a; b becomes LRU
    cache.put("c", make_report("c"))
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert cache.stats().evictions == 1


def test_byte_budget_evicts(make_report):
    probe = ResultCache()
    probe.put("x", make_report("x"))
    one = probe.stats().bytes
    cache = ResultCache(max_bytes=int(one * 1.5))
    cache.put("a", make_report("a"))
    cache.put("b", make_report("b"))
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.entries == 1
    assert stats.bytes <= cache.max_bytes


def test_tiny_budget_drops_even_the_new_entry(make_report):
    cache = ResultCache(max_bytes=16)
    cache.put("a", make_report("a"))
    assert len(cache) == 0
    assert cache.stats().evictions == 1


def test_reinsert_same_key_replaces(make_report):
    cache = ResultCache()
    cache.put("a", make_report("a", latency=1e-3))
    cache.put("a", make_report("a", latency=2e-3))
    assert len(cache) == 1
    assert cache.get("a").end_to_end.latency_seconds == 2e-3


def test_disk_tier_survives_restart(tmp_path, make_report):
    report = make_report("persisted")
    first = ResultCache(disk_dir=str(tmp_path))
    first.put("k", report)
    # a fresh cache (fresh process, conceptually) reads the disk tier
    second = ResultCache(disk_dir=str(tmp_path))
    restored = second.get("k")
    assert restored is not None
    assert report_digest(restored) == report_digest(report)
    stats = second.stats()
    assert stats.disk_hits == 1 and stats.misses == 0
    assert stats.hit_ratio == 1.0
    # promoted to memory: next read is a memory hit
    assert second.get("k") is restored
    assert second.stats().hits == 1


def test_disk_tier_ignores_corrupt_entry(tmp_path, make_report):
    cache = ResultCache(disk_dir=str(tmp_path))
    (tmp_path / "bad.json").write_text("{not json")
    assert cache.get("bad") is None
    assert cache.stats().misses == 1


def test_clear_keeps_disk(tmp_path, make_report):
    cache = ResultCache(disk_dir=str(tmp_path))
    cache.put("k", make_report())
    cache.clear()
    assert len(cache) == 0
    assert cache.get("k") is not None   # reloaded from disk


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        ResultCache(max_bytes=0)
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)


def test_overwrite_accounts_only_new_entry_bytes(make_report):
    # overwriting a key must replace its byte charge, not accumulate it
    small = make_report("a")
    big = make_report("a-much-longer-model-name-padding-the-payload")
    probe = ResultCache()
    probe.put("k", big)
    big_bytes = probe.stats().bytes

    cache = ResultCache()
    cache.put("k", small)
    small_bytes = cache.stats().bytes
    assert small_bytes < big_bytes
    cache.put("k", big)                     # grow in place
    assert cache.stats().bytes == big_bytes
    cache.put("k", small)                   # shrink in place
    assert cache.stats().bytes == small_bytes
    assert len(cache) == 1


def test_oversized_report_leaves_zeroed_consistent_state(make_report):
    probe = ResultCache()
    probe.put("s", make_report("s"))
    one = probe.stats().bytes

    cache = ResultCache(max_bytes=int(one * 1.2))
    oversized = make_report("x" * 4096)     # single report > max_bytes
    cache.put("huge", oversized)
    stats = cache.stats()
    assert len(cache) == 0
    assert stats.bytes == 0                 # accounting back to zero
    assert stats.evictions == 1
    # the cache must still accept reports that do fit
    cache.put("s", make_report("s"))
    assert "s" in cache
    assert cache.stats().bytes <= cache.max_bytes


# ----------------------------------------------------------------------
# negative tier (TTL'd fatal-failure entries)
# ----------------------------------------------------------------------
def test_negative_entry_roundtrip_and_stats():
    cache = ResultCache()
    assert cache.get_failure("k") is None
    cache.put_failure("k", ValueError("unsupported op: FancyConv"))
    assert cache.get_failure("k") == \
        ("ValueError", "unsupported op: FancyConv")
    stats = cache.stats()
    assert stats.negative_entries == 1
    assert stats.negative_hits == 1
    assert stats.to_dict()["negative_hits"] == 1


def test_negative_entry_expires(monkeypatch):
    import time

    monkeypatch.setattr(result_cache, "NEGATIVE_TTL_SECONDS", 0.05)
    cache = ResultCache()
    cache.put_failure("k", ValueError("boom"))
    assert cache.get_failure("k") is not None
    time.sleep(0.08)
    assert cache.get_failure("k") is None
    assert cache.stats().negative_entries == 0


def test_positive_result_supersedes_negative_entry(make_report):
    cache = ResultCache()
    cache.put_failure("k", ValueError("flaky classifier said fatal"))
    cache.put("k", make_report())
    assert cache.get_failure("k") is None
    assert cache.get("k") is not None


def test_negative_tier_bounded_by_max_entries():
    cache = ResultCache(max_entries=3)
    for i in range(5):
        cache.put_failure(f"k{i}", ValueError(f"e{i}"))
    assert cache.stats().negative_entries == 3
    assert cache.get_failure("k0") is None       # oldest evicted
    assert cache.get_failure("k4") is not None


class _BlockingSize:
    """Holds a cache's sizing step until released."""

    def __init__(self, size):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._size = size

    def __call__(self, report):
        self.entered.set()
        assert self.release.wait(10.0)
        return self._size(report)


def _get_returns_while_sizing(cache, blocking, insert, key):
    """Run ``insert`` until it blocks in sizing; a ``get`` of ``key``
    from another thread must still return."""
    inserter = threading.Thread(target=insert)
    inserter.start()
    try:
        assert blocking.entered.wait(5.0)
        got = []
        reader = threading.Thread(target=lambda: got.append(cache.get(key)))
        reader.start()
        reader.join(2.0)
        assert not reader.is_alive(), "get blocked behind a sizing step"
        return got[0]
    finally:
        blocking.release.set()
        inserter.join(5.0)


def test_put_sizes_outside_the_lock(make_report):
    cache = ResultCache()
    warm = make_report("warm")
    cache.put("warm", warm)
    blocking = _BlockingSize(lambda report: 64)

    class SlowReport:
        def to_dict(self):
            return {"size": blocking(self)}

    assert _get_returns_while_sizing(
        cache, blocking, lambda: cache.put("slow", SlowReport()),
        "warm") is warm
    assert "slow" in cache


def test_disk_hit_sizes_outside_the_lock(tmp_path, make_report):
    cache = ResultCache(disk_dir=str(tmp_path))
    warm = make_report("warm")
    cache.put("warm", warm)
    cache.put("cold", make_report("cold"))
    cache.clear()
    cache.put("warm", warm)
    blocking = _BlockingSize(cache._payload_size)
    cache._payload_size = blocking
    assert _get_returns_while_sizing(
        cache, blocking, lambda: cache.get("cold"), "warm") is warm
    assert "cold" in cache
    assert cache.stats().disk_hits == 1
