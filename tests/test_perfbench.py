"""The benchmark runs end to end and reports every per-layer metric it declares."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pertree import sim

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_hooks_replace_and_restore_every_target():
    # The hooks patch pertree names; a renamed or deleted one fails to install.
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = [spans.Counters(), spans.Tracer()]
    try:
        hooks[0].install(batch_engines=True)
        hooks[1].install()
        # The value before any hook: the first one recorded for each target.
        originals = {}
        for hook in hooks:
            for owner, attr, original in hook._patches._undo:
                originals.setdefault((owner, attr), original)
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, attr
    finally:
        for hook in reversed(hooks):
            hook.uninstall()
    assert {attr for _, attr in originals} >= {"run_contact", "run_brw", "stream",
                                               "run_replicas", "star_batch"}
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr
    assert sim.run_contact is sim.run_brw


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
