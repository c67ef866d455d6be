"""The benchmark runs end to end and reports every per-layer metric it declares."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["brw-34", "lambda2-1-100", "exact-check"])
def test_perfbench_traced_smoke_run(workload):
    # A renamed function that the tracer patches by name breaks this run.  On
    # lambda2-1-100 the run also checks each bracket's ratio and that a pooled
    # survival point (CP_THREADS=2) matches the serial one.  On exact-check
    # every batch engine, oracle and bound check must pass, the star oracle's
    # large points included.
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    if workload == "exact-check":
        assert report["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
