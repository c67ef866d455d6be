"""Process hygiene of pooled replica batches.

A batch of at least ``sim.POOL_MIN_REPLICAS`` replicas runs in a fork pool
that lives for one ``run_replicas`` call.  These checks run ``pertree sweep``
in a fresh interpreter, from a script without a ``__main__`` guard, which
a spawned worker would re-run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pertree

SRC = str(Path(pertree.__file__).resolve().parents[1])

# Unguarded on purpose.  Every forked process appends its PID to a file, and
# the process reports which of them are still alive once the sweep returns.
# The affinity mask reads as two CPUs, so the default pools on any machine.
SCRIPT = """
import json, os, sys
from pertree import cli

pids = sys.argv[1]
os.register_at_fork(after_in_child=lambda: open(pids, "a").write(f"{os.getpid()}\\n"))
os.sched_getaffinity = lambda pid: {0, 1}
def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True

code = cli.main(sys.argv[2:])
workers = [int(p) for p in open(pids).read().split()] if os.path.exists(pids) else []
print(json.dumps({"code": code, "workers": workers,
                  "alive": [p for p in workers if alive(p)]}))
"""

def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(sys.platform != "linux", reason="fork pools are Linux-only")
def test_pooled_sweep_from_an_unguarded_script(tmp_path):
    script = tmp_path / "sweep_script.py"
    script.write_text(SCRIPT)
    runs = {}
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "CP_THREADS"}
        env["PYTHONPATH"] = SRC
        if threads:
            env["CP_THREADS"] = threads
        name = threads or "default"
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / f"{name}.pids"),
             "sweep", "--degrees", "3,4", "--lambda-grid", "0.3:0.5:0.1",
             "--horizon", "10", "--replicas", "64", "--seed", "3",
             "--max-events", "2000", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["code"] == 0
        assert report["alive"] == []
        assert not any(alive(pid) for pid in report["workers"])
        runs[name] = (report["workers"], out.read_bytes())
    # Three grid points, each in its own pool of two workers.
    assert len(runs["default"][0]) == 6
    assert runs["1"][0] == []
    assert runs["default"][1] == runs["1"][1]
