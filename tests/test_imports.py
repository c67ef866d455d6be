"""Start-up cost: no command loads scipy.

Only ``oracle.brw_survival`` uses scipy, and it imports it in its own
body; ``oracle.exact_contact_small`` (``pertree oracle --edges``) solves
with numpy alone.  The check runs in a fresh interpreter, because this
test process already holds scipy through other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pertree

SRC = str(Path(pertree.__file__).resolve().parents[1])

# Every subcommand but ``oracle --edges``, each at a small size.
COMMANDS = [
    ["bounds", "--degrees", "3,4"],
    ["table", "--which", "period3_x0"],
    ["predict", "--degrees", "1,n", "--n-range", "10:20:10"],
    ["walks", "--degrees", "3,4", "--nmax", "3"],
    ["simulate", "--degrees", "3,4", "--lambda", "0.3", "--horizon", "2",
     "--replicas", "2"],
    ["sweep", "--degrees", "3,4", "--lambda-grid", "0.1:0.2:0.1", "--horizon", "2",
     "--replicas", "5"],
    ["star", "--n", "3", "--lambda", "0.5", "--replicas", "5"],
    ["oracle", "--star-n", "3", "--lambda", "0.5"],
    ["oracle", "--enumerate-degrees", "3,4", "--two-n", "4"],
]

PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import pertree
from pertree import cli, oracle, sim
report = {"after_import": scipy_modules(), "codes": []}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        report["codes"].append(cli.main(argv))
    sim.estimate_lambda2(pertree.PeriodicDegreeSequence((3, 4)), sim.Lambda2Protocol(
        lam_lo=0.05, lam_hi=0.9, horizon=5.0, replicas=10, seed=1, tolerance=0.2,
        target_probability=0.2, criterion="global", max_events=500))
    report["after_commands"] = scipy_modules()
    report["edges_code"] = cli.main(["oracle", "--edges", "0-1", "--lambda", "1.0"])
report["after_edges"] = scipy_modules()
oracle.brw_survival(pertree.PeriodicDegreeSequence((3, 4)), 0.3, 1.0)
report["after_brw_survival"] = scipy_modules()
print(json.dumps(report))
"""


def test_only_brw_survival_loads_scipy():
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(COMMANDS)],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": SRC}, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["codes"] == [0] * len(COMMANDS)
    assert report["after_commands"] == []
    assert report["edges_code"] == 0
    assert report["after_edges"] == []
    assert "scipy.integrate" in report["after_brw_survival"]


POOL_PROBE = """
import json, math, os, sys

def pool_modules():
    return sorted(m for m in sys.modules if m in ("multiprocessing", "concurrent.futures")
                  or m.startswith(("multiprocessing.", "concurrent.futures.")))

os.sched_getaffinity = lambda pid: {0, 1}   # the default would pool a large batch
import pertree
from pertree import sim
seq = pertree.PeriodicDegreeSequence((1, 100))
pred = math.sqrt(0.5 * math.log(100) / 100)
report = {"after_import": pool_modules()}
sim.estimate_lambda2(seq, sim.Lambda2Protocol(
    lam_lo=0.3 * pred, lam_hi=4.0 * pred, horizon=150.0, replicas=30, seed=1,
    tolerance=0.1 * pred, max_events=10_000))
sim.survival_curve(seq, pred, 1.0, 2, 0, criterion="local", max_events=10)
report["after_small_batches"] = pool_modules()
sim.survival_curve(seq, pred, 0.01, sim.POOL_MIN_REPLICAS, 0)
report["after_pooled_batch"] = pool_modules()
print(json.dumps(report))
"""


def test_small_batches_load_no_pool_modules():
    # A lambda_2 bisection of the benchmark's size runs batches of at most 30
    # replicas, below sim.POOL_MIN_REPLICAS, so it stays in this process.
    env = {"PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", POOL_PROBE],
                          capture_output=True, text=True, timeout=120, env=env,
                          check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["after_small_batches"] == []
    assert "concurrent.futures.process" in report["after_pooled_batch"]
