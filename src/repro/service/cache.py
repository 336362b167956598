"""Content-addressed result cache.

PRoof's analytical pipeline is deterministic, so a profiling result is
fully determined by its request fingerprint (graph content + backend +
platform + precision + metric source).  That makes results perfectly
cacheable: the cache maps fingerprints to :class:`ProfileReport`
objects with

* an in-memory LRU tier bounded by **both** bytes and entry count
  (entry size = the report's canonical JSON payload), and
* an optional JSON-on-disk tier reusing the report (de)serializer, so a
  restarted service re-serves earlier results without re-profiling.

Eviction only trims the memory tier; disk entries persist and re-enter
memory on access.  All operations are thread-safe.
"""
from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.report import ProfileReport

__all__ = ["CacheStats", "NEGATIVE_TTL_SECONDS", "ResultCache"]

#: how long a fatal failure short-circuits identical requests: a fatal
#: error is deterministic for one fingerprint, and the bound limits
#: staleness across deploys that teach the profiler new ops
NEGATIVE_TTL_SECONDS = 300.0


@dataclass
class CacheStats:
    """A point-in-time view of cache behaviour."""

    entries: int
    bytes: int
    max_entries: int
    max_bytes: int
    hits: int
    disk_hits: int
    misses: int
    insertions: int
    evictions: int
    negative_entries: int = 0
    negative_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.lookups
        return (self.hits + self.disk_hits) / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entries": self.entries, "bytes": self.bytes,
            "max_entries": self.max_entries, "max_bytes": self.max_bytes,
            "hits": self.hits, "disk_hits": self.disk_hits,
            "misses": self.misses, "insertions": self.insertions,
            "evictions": self.evictions, "hit_ratio": self.hit_ratio,
            "negative_entries": self.negative_entries,
            "negative_hits": self.negative_hits,
        }


class ResultCache:
    """Thread-safe LRU keyed by request fingerprint."""

    def __init__(self, max_bytes: int = 64 << 20, max_entries: int = 512,
                 disk_dir: Optional[str] = None) -> None:
        if max_bytes <= 0 or max_entries <= 0:
            raise ValueError("cache bounds must be positive")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self.disk_dir = disk_dir
        if disk_dir:
            os.makedirs(disk_dir, exist_ok=True)
        self._lock = threading.RLock()
        #: key -> (report, payload bytes); insertion order = LRU order
        self._entries: "OrderedDict[str, Tuple[ProfileReport, int]]" = \
            OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        #: key -> (error type name, error message, monotonic expiry).
        #: Insertion-ordered, so the oldest entry is evicted when the
        #: tier outgrows ``max_entries``.
        self._negative: "OrderedDict[str, Tuple[str, str, float]]" = \
            OrderedDict()
        self._negative_hits = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[ProfileReport]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[0]
        report = self._read_disk(key)
        if report is None:
            with self._lock:
                self._misses += 1
            return None
        # sized before locking: a JSON encode under the lock would stall
        # every concurrent get
        size = self._payload_size(report)
        with self._lock:
            self._disk_hits += 1
            self._insert(key, report, size, count_insertion=False)
        return report

    def put(self, key: str, report: ProfileReport) -> None:
        self._write_disk(key, report)
        size = self._payload_size(report)
        with self._lock:
            # a real result supersedes any stale negative entry
            self._negative.pop(key, None)
            self._insert(key, report, size, count_insertion=True)

    # -- negative tier --------------------------------------------------
    def put_failure(self, key: str, error: BaseException) -> None:
        """Record a fatal failure so identical requests short-circuit.

        Entries expire after :data:`NEGATIVE_TTL_SECONDS`.
        """
        with self._lock:
            self._negative.pop(key, None)
            self._negative[key] = (type(error).__name__, str(error),
                                   time.monotonic() + NEGATIVE_TTL_SECONDS)
            while len(self._negative) > self.max_entries:
                self._negative.popitem(last=False)

    def get_failure(self, key: str) -> Optional[Tuple[str, str]]:
        """``(error type name, message)`` for a live negative entry."""
        with self._lock:
            entry = self._negative.get(key)
            if entry is None:
                return None
            if time.monotonic() >= entry[2]:
                del self._negative[key]
                return None
            self._negative_hits += 1
            return entry[0], entry[1]

    def stats(self) -> CacheStats:
        with self._lock:
            now = time.monotonic()
            negative = sum(1 for _, _, exp in self._negative.values()
                           if exp > now)
            return CacheStats(
                entries=len(self._entries), bytes=self._bytes,
                max_entries=self.max_entries, max_bytes=self.max_bytes,
                hits=self._hits, disk_hits=self._disk_hits,
                misses=self._misses, insertions=self._insertions,
                evictions=self._evictions,
                negative_entries=negative,
                negative_hits=self._negative_hits)

    def clear(self) -> None:
        """Drop the memory tier (disk entries survive)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def _payload_size(self, report: ProfileReport) -> int:
        return len(json.dumps(report.to_dict(),
                              separators=(",", ":")).encode("utf-8"))

    def _insert(self, key: str, report: ProfileReport, size: int,
                count_insertion: bool) -> None:
        # caller holds the lock
        if key in self._entries:
            _, old_size = self._entries.pop(key)
            self._bytes -= old_size
        self._entries[key] = (report, size)
        self._bytes += size
        if count_insertion:
            self._insertions += 1
        while self._entries and (self._bytes > self.max_bytes
                                 or len(self._entries) > self.max_entries):
            _, (_, evicted_size) = self._entries.popitem(last=False)
            self._bytes -= evicted_size
            self._evictions += 1

    # -- disk tier ------------------------------------------------------
    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.json")

    def _write_disk(self, key: str, report: ProfileReport) -> None:
        if not self.disk_dir:
            return
        path = self._disk_path(key)
        tmp = f"{path}.tmp.{threading.get_ident()}"
        try:
            report.save(tmp)
            os.replace(tmp, path)
        except OSError:
            # the disk tier is best-effort; a full/readonly disk must not
            # fail the profiling job
            if os.path.exists(tmp):
                try:
                    os.remove(tmp)
                except OSError:
                    pass

    def _read_disk(self, key: str) -> Optional[ProfileReport]:
        if not self.disk_dir:
            return None
        path = self._disk_path(key)
        if not os.path.exists(path):
            return None
        try:
            return ProfileReport.load(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return None
