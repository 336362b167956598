"""Fixtures shared across the test packages."""
import os
import subprocess
import sys

import pytest

import repro


@pytest.fixture
def run_python():
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's ``repro``; ``env`` entries override the inherited
    environment.  Fails the test on a non-zero exit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

    def run(*args, env=None, cwd=None):
        full = dict(os.environ, **(env or {}))
        full["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, full.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *args], env=full, cwd=cwd,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc

    return run
