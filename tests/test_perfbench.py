"""The benchmark runs end to end and reports every per-layer metric it declares."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_traced_smoke_run():
    # A renamed function that the tracer patches by name breaks this run.
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "brw-34", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
