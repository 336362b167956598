"""The correctness oracle: expected results, committed as data.

``oracle/digests.json`` maps every request any workload can draw to the
``report_digest`` the uncached profiler gives it.  ``oracle/plan.json``
holds the execution baselines: NaN + Inf output values of every zoo CNN
at O0, O2 and O3, and, per plan-exec model, which feed seeds give O2/O3
outputs within O2's tolerance of the reference executor.  Inputs out of
tolerance or non-finite stay out of plan-exec's checked set.
Regenerate both with ``python3 perfbench/make_oracle.py``.
"""
from __future__ import annotations

import json
import os
from typing import Any, Dict

ORACLE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "oracle")
DIGESTS_PATH = os.path.join(ORACLE_DIR, "digests.json")
PLAN_PATH = os.path.join(ORACLE_DIR, "plan.json")


class DigestOracle:
    """Expected ``report_digest`` per (model, backend, precision, batch)."""

    def __init__(self, digests: Dict[str, str]) -> None:
        self.digests = dict(digests)

    @classmethod
    def load(cls, path: str = DIGESTS_PATH) -> "DigestOracle":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh)["digests"])

    def verify(self, key, digest: str) -> bool:
        """True only for a known key whose digest matches exactly."""
        return self.digests.get(str(key)) == digest


def plan_baseline(path: str = PLAN_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
