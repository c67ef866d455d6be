"""pertree benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep-34 --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src/`` of
the same checkout, never from an installed copy.  Each workload runs
serially in this process as a closed loop (the next round starts when the
previous one returns) until ``--seconds`` have passed; the default is
``run_seconds`` of BENCHMARK.json, the length its bounds were set for.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same untraced rounds, replays them with spans
recorded and reports the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts operations that raised or failed their check; ``correct`` is false
if any failed check is outside ``workloads.KNOWN_FAILURES``, whether it
raised or returned a wrong answer.  A full record (environment, every
check, round times, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("sweep-34", "lambda2-1-100", "brw-34", "exact-check")
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60


def _import_path() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "pertree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'pertree'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))


def setup(workload: str) -> float:
    """Import, build the CLI parser and warm up every module the workload uses."""
    start = time.perf_counter()
    from pertree import cli
    cli.build_parser()
    from workloads import WORKLOADS
    WORKLOADS[workload](OUT / "tmp").warmup()
    return time.perf_counter() - start


def setup_samples(workload: str) -> list[float]:
    """Set-up times, each measured in a fresh interpreter so imports are cold."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-probe", workload],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
            commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "CP_THREADS": os.environ.get("CP_THREADS", "unset"),
        "git_commit": commit,
        "seed": seed,
        "note": "CPU frequency is not pinned and cores are not isolated; "
                "other tenants may share the machine",
    }


def run_rounds(workload, seeds, seconds=None, tracer=None):
    """Rounds back to back over ``seeds``, stopping once ``seconds`` have passed."""
    times, checks, used = [], [], []
    start = time.perf_counter()
    for seed in seeds:
        if seconds is not None and times and time.perf_counter() - start >= seconds:
            break
        gc.collect()
        t0 = time.perf_counter()
        frame = tracer.open("round") if tracer else None
        checks.extend(workload.round(seed))
        if tracer:
            tracer.close(frame, {"seed": seed})
        times.append(time.perf_counter() - t0)
        used.append(seed)
    return times, checks, used


def run(args, units: dict[str, str]) -> dict:
    samples = setup_samples(args.workload)
    setup(args.workload)
    from spans import Counters, Tracer, layer_metrics
    from workloads import AGREEMENT_SE, KNOWN_FAILURES, WORKLOADS

    workload = WORKLOADS[args.workload](OUT / "tmp")
    counters = Counters()
    counters.install(workload.batch_engines)
    try:
        times, checks, seeds = run_rounds(workload, itertools.count(1000 * args.seed),
                                          args.seconds)
        events = counters.events
        misses_3se = sum(c.misses_3se for c in checks)
        comparisons = sum(c.comparisons for c in checks)
        record = {"workload": args.workload, "trace": args.trace,
                  "environment": environment(args.seed), "setup_samples_s": samples,
                  "round_seeds": seeds, "round_s": times,
                  "comparisons": comparisons, "misses_3se": misses_3se}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_times, traced_checks, _ = run_rounds(workload, seeds, tracer=tracer)
            finally:
                tracer.uninstall()
            counters.uninstall()
            checks.extend(traced_checks)
            speedup = 0.0
            if hasattr(workload, "pool2_speedup"):
                speedup, pool_check = workload.pool2_speedup(seeds[0])
                checks.append(pool_check)
            # Per-round ratio, so heap growth in the first untraced round
            # does not pass for negative overhead.
            overhead = statistics.median(t / u for t, u in zip(traced_times, times)) - 1.0
            metrics = layer_metrics(tracer.spans, len(seeds), overhead, speedup,
                                    misses_3se)
            record.update(traced_round_s=traced_times, spans=tracer.to_json())
        else:
            metrics = {
                "setup_s": statistics.median(samples),
                "wall_s": statistics.median(times),
                "events_per_s": events / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        counters.uninstall()
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    failed = [c for c in checks if not c.ok]
    unexpected = [c for c in failed if c.name not in KNOWN_FAILURES]
    record.update(metrics=metrics, checks=[vars(c) for c in checks])
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}: {len(seeds)} rounds, {len(checks)} operations "
          f"(unit: {workload.unit}); record in {out_file.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':<34} {len(failed) / len(checks):.6g} ratio")
    if comparisons:
        print(f"  3-se misses (failing only beyond {AGREEMENT_SE:g} se): "
              f"{misses_3se} of {comparisons} untraced comparisons")
    for kind, group in (("FAILED (known)", [c for c in failed if c.name in KNOWN_FAILURES]),
                        ("FAILED", unexpected),
                        ("missed 3 se", [c for c in checks if c.misses_3se])):
        for name, count in Counter(c.name for c in group).items():
            last = next(c for c in reversed(group) if c.name == name)
            print(f"  {kind} x{count}: {name}: {last.detail.strip()}")
    return {"correct": not unexpected, "attempted": len(checks), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    print(f"\n{'workload':<15} {'metric':<34} value")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:<15} {metric:<34} {m['value']:.6g} {m['unit']}")
        print(f"{name:<15} {'failed_frac':<34} "
              f"{result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']} of {result['attempted']})")
    return 0


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="pertree benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_path()
    if args.setup_probe:
        print(setup(args.setup_probe))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps(run(args, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
