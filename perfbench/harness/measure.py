"""Order statistics, resource readings, span self times, host record."""
from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
from collections import defaultdict
from typing import Dict, Iterable, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_above(n: int, q: float) -> int:
    """How many of ``n`` samples lie above their ``q``-quantile."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def latency_summary(ms: Sequence[float]) -> Dict[str, float]:
    """Median, p90 and p99, with the sample count behind each tail."""
    return {"n": len(ms),
            "p50": percentile(ms, 0.50),
            "p90": percentile(ms, 0.90),
            "p99": percentile(ms, 0.99),
            "above_p90": samples_above(len(ms), 0.90),
            "above_p99": samples_above(len(ms), 0.99)}


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 if undefined."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
           if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    var = sum((x - mx) ** 2 for x, _ in pts)
    if var == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / var


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# resources
# ----------------------------------------------------------------------
def cpu_seconds() -> float:
    """User + system CPU of this process, all threads."""
    t = os.times()
    return t.user + t.system


def children_cpu_seconds() -> float:
    """User + system CPU of every child process reaped so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set in MB: this process, or its largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------
def self_times(spans: Iterable) -> Dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the durations of its
    direct children; spans nest per thread, so children never overlap.
    """
    spans = [s for s in spans if s.duration_us is not None]
    child_us: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_us[s.parent_id] += s.duration_us
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += max(0.0, s.duration_us - child_us[s.span_id]) / 1e6
    return dict(out)


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------
def _git_revision(root: str) -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    """SHA-256 prefix over the program's sources: identifies the
    revision measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy without the dict mode
        return "unknown"


def host_record(root: str) -> Dict[str, object]:
    import numpy as np
    return {"nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(),
            "machine": platform.machine(),
            "git_revision": _git_revision(root),
            "source_digest": _source_digest(root)}
