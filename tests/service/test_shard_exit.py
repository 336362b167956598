"""Fleet shards exit when the process that started them dies.

A shard blocks in ``conn.recv()`` between tasks.  It sees EOF only when
every copy of the parent-side pipe end is closed, including the one the
fork handed to the child itself, so a SIGKILLed parent must not leave
shards waiting forever under PID 1.
"""
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro

FLEET_SCRIPT = """
import time
from repro.service.server import make_service
svc = make_service(2).start()
print(" ".join(str(h.pid) for h in svc.dispatcher.shards.values()),
      flush=True)
while True:
    time.sleep(60)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie.  Reads
    ``/proc/<pid>/stat`` because PID 1 may never reap an orphan."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods()
                    or not os.path.isdir("/proc/self"),
                    reason="needs fork and /proc")
def test_shards_exit_after_parent_is_killed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    parent = subprocess.Popen([sys.executable, "-c", FLEET_SCRIPT], env=env,
                              stdout=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = [int(p) for p in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, pids)):
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=10)
        parent.stdout.close()
        for pid in pids:
            if _running(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
