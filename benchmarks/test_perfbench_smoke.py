"""Oracle smokes: short perfbench runs of the profile path and the fleet.

``perfbench/run.py`` exits 0 whatever its operations did, so each test
reads the result line it prints last and requires every operation to
have matched its oracle ``report_digest`` (``correct``) with none
failed.  Timing is not checked.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_perfbench(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0, result
    assert result["correct"] is True, result
    assert result["failed"] == 0, result


def test_profile_cold_matches_oracle():
    run_perfbench("profile-cold")


def test_service_fleet_matches_oracle():
    """Every reply routed through the 2-process fleet (graph-fingerprint
    placement, assembled precision siblings) matches the oracle."""
    run_perfbench("service-fleet")
