"""The four benchmark workloads and the checks that feed ``failed``.

Each workload runs in rounds.  A round is one answer at the stated input
size (a sweep, a bisection, a pair of survival points, a suite of exact
checks) and is made of unit operations, each with its own check.  Every
round draws from its own seed, derived from the benchmark's ``--seed``, so
the library sees only generated inputs.

All calls go through module attributes (``sim.survival_curve``, not a name
bound at import), so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import math
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pertree import bounds, cli, oracle, sim, walks
from pertree.degrees import PeriodicDegreeSequence
from pertree.errors import PertreeError


@dataclass
class Check:
    """Outcome of one unit operation."""

    name: str
    ok: bool
    detail: str = ""
    comparisons: int = 0     # statistical comparisons made by the check
    misses_3se: int = 0      # of those, how many fell outside 3 se


def attempt(name: str, fn) -> Check:
    """Run one operation and its check; a failure is recorded, never raised."""
    try:
        ok, detail = fn()
    except PertreeError as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    except (Exception, SystemExit):  # a crash is a wrong answer; keep the run going
        return Check(name, False, traceback.format_exc(limit=4))
    return Check(name, bool(ok), detail)


def _seq(text: str) -> PeriodicDegreeSequence:
    return PeriodicDegreeSequence.parse(text)


# ---------------------------------------------------------------------------
# sweep-34: `pertree sweep` in-process, contact process, global criterion


class Sweep34:
    name = "sweep-34"
    unit = "grid point"
    batch_engines = False
    GRID = "0.30:0.50:0.05"
    LAMBDAS = (0.30, 0.35, 0.40, 0.45, 0.50)
    HORIZON = 30.0
    REPLICAS = 100
    MAX_EVENTS = 5_000

    def __init__(self, scratch: Path):
        scratch.mkdir(parents=True, exist_ok=True)
        self.out = scratch / "sweep-34.csv"

    def _remove_outputs(self) -> None:
        # Truncating a just-written file can force a synchronous flush on
        # some filesystems (ext4 auto_da_alloc), about 70 ms per file here;
        # each sweep writes fresh files instead.
        for path in (self.out, Path(f"{self.out}.manifest.json")):
            path.unlink(missing_ok=True)

    def _argv(self, seed: int, grid: str, replicas: int, horizon: float) -> list[str]:
        return ["sweep", "--degrees", "3,4", "--lambda-grid", grid,
                "--horizon", repr(horizon), "--replicas", str(replicas),
                "--seed", str(seed), "--criterion", "global", "--mode", "contact",
                "--max-events", str(self.MAX_EVENTS), "--out", str(self.out)]

    def warmup(self) -> None:
        cli.main(self._argv(0, "0.3:0.3:0.1", 1, 0.5))
        self._remove_outputs()

    def round(self, seed: int) -> list[Check]:
        grid = self.LAMBDAS
        names = [f"sweep lam={lam:.2f}" for lam in grid]
        try:
            code = cli.main(self._argv(seed, self.GRID, self.REPLICAS, self.HORIZON))
            if code != 0:
                return [Check(name, False, f"exit code {code}") for name in names]
            with open(self.out, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except (Exception, SystemExit):  # a crash fails every grid point
            detail = traceback.format_exc(limit=4)
            return [Check(name, False, detail) for name in names]
        finally:
            self._remove_outputs()
        checks = []
        for i, (name, lam) in enumerate(zip(names, grid)):
            if i >= len(rows):
                checks.append(Check(name, False, "row missing"))
                continue
            row = {k: float(v) for k, v in rows[i].items()}
            ok = (abs(row["lambda"] - lam) < 1e-9
                  and row["replicas"] == self.REPLICAS
                  and row["ci_low"] <= row["probability"] <= row["ci_high"])
            detail = f"p={row['probability']:.3f} ci=[{row['ci_low']:.3f},{row['ci_high']:.3f}]"
            if i == len(grid) - 1 and rows:
                bottom = {k: float(v) for k, v in rows[0].items()}
                separated = row["ci_low"] > bottom["ci_high"]
                ok = ok and separated
                detail += f" separated_from_bottom={separated}"
            checks.append(Check(name, ok, detail))
        return checks


# ---------------------------------------------------------------------------
# lambda2-1-100: threshold bisection on (1,100), criterion-7 protocol


class Lambda2:
    name = "lambda2-1-100"
    unit = "bisection"
    batch_engines = False
    N = 100
    REPLICAS = 30

    def __init__(self, scratch: Path):
        self.seq = PeriodicDegreeSequence((1, self.N))
        self.pred = math.sqrt(0.5 * math.log(self.N) / self.N)

    def protocol(self, seed: int) -> sim.Lambda2Protocol:
        return sim.Lambda2Protocol(lam_lo=0.3 * self.pred, lam_hi=4.0 * self.pred,
                                   horizon=150.0, replicas=self.REPLICAS, seed=seed,
                                   tolerance=0.1 * self.pred, max_events=10_000)

    def warmup(self) -> None:
        sim.survival_curve(self.seq, self.pred, 1.0, 2, 0, criterion="local",
                           max_events=10)

    def round(self, seed: int) -> list[Check]:
        def bisect():
            lo, hi = sim.estimate_lambda2(self.seq, self.protocol(seed))
            ratio = 0.5 * (lo + hi) / self.pred
            return 0.5 <= ratio <= 2.5, f"bracket=[{lo:.4f},{hi:.4f}] ratio={ratio:.3f}"
        return [attempt("bisection (1,100)", bisect)]

    def pool2_speedup(self, seed: int) -> tuple[float, Check]:
        """One survival point (the upper bracket) serially, then with CP_THREADS=2."""
        proto = self.protocol(seed)

        def point():
            return sim.survival_curve(self.seq, proto.lam_hi, proto.horizon,
                                      proto.replicas, seed, criterion="local",
                                      max_events=proto.max_events, substream=1)
        previous = os.environ.get("CP_THREADS")
        try:
            os.environ.pop("CP_THREADS", None)
            serial_s, serial = _timed(point)
            os.environ["CP_THREADS"] = "2"
            pooled_s, pooled = _timed(point)
        finally:
            if previous is None:
                os.environ.pop("CP_THREADS", None)
            else:
                os.environ["CP_THREADS"] = previous
        same = serial == pooled
        return serial_s / pooled_s, Check("CP_THREADS=2 matches serial", same,
                                          f"serial={serial_s:.3f}s pooled={pooled_s:.3f}s")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------------
# brw-34: branching random walk on (3,4) around lambda_ell (criterion 7 part i)


class Brw34:
    name = "brw-34"
    unit = "survival point"
    batch_engines = False
    HORIZON = 100.0
    # Local survival at 1.3 lambda_ell is about 0.34.  At 100 replicas the
    # "survival > 0.2" check failed by chance on 0.18% of points; at 250 it
    # fails on about 1e-6 of them (binomial tail, p = 0.338).
    REPLICAS = 250

    def __init__(self, scratch: Path):
        self.seq = PeriodicDegreeSequence((3, 4))

    def _point(self, lam: float, seed: int, replicas: int, horizon: float):
        return sim.survival_curve(self.seq, lam, horizon, replicas, seed,
                                  criterion="local", mode="brw",
                                  brw_population_cap=2000, max_events=100_000)

    def warmup(self) -> None:
        self._point(bounds.lambda_ell_period2(3, 4), 0, 2, 1.0)

    def round(self, seed: int) -> list[Check]:
        lam_ell = bounds.lambda_ell_period2(3, 4)
        est = {}

        def below():
            est["sub"] = s = self._point(0.8 * lam_ell, seed, self.REPLICAS, self.HORIZON)
            return 1.0 - s.probability > 0.95, f"local extinction {1 - s.probability:.3f}"

        def above():
            s = self._point(1.3 * lam_ell, seed, self.REPLICAS, self.HORIZON)
            sub = est.get("sub")
            separated = sub is not None and s.ci_low > sub.ci_high
            return (s.probability > 0.2 and separated,
                    f"local survival {s.probability:.3f} separated={separated}")

        return [attempt("brw 0.8*lambda_ell", below),
                attempt("brw 1.3*lambda_ell", above)]


# ---------------------------------------------------------------------------
# exact-check: batch engines vs oracles, walk DP vs enumeration, bounds


GRAPH_FIXTURES = [
    ({0: [1], 1: [0]}, 1.0, 0),
    ({0: [1], 1: [0, 2], 2: [1]}, 0.5, 1),
    ({0: [1, 2, 3], 1: [0, 4], 2: [0, 5], 3: [0, 6],
      4: [1], 5: [2], 6: [3]}, 0.8, 0),
]
STAR_FIXTURES = [(n, lam) for n in (3, 5, 10) for lam in (0.3, 0.5, 1.0)]
STAR_ORACLE_POINTS = [(n, lam) for n in (10, 100, 1000) for lam in (0.3, 0.5, 1.0)]
WALK_DEGREES = ("3,4", "2,3,4")
BOUNDS_DEGREES = ("3,4", "2,3,4", "1,100")   # the README's degree strings
ENUM_TWO_N = (2, 4, 6, 8)
# The issue's 3-se rule, corrected for the number of comparisons: a run
# makes about 400 and a full benchmark pass about 10^4, where a chance
# miss at 3 se (p = 0.27%) would be certain.  At 5 se (p = 5.7e-7) the
# family-wise chance of a miss over 10^4 comparisons is about 0.6%.
AGREEMENT_SE = 5.0

# Checks that fail at this commit for a known library defect, not by
# chance: star_mean_absorption raises SolveFailure here because its
# residual tolerance scales with max|A|, not |A||x|.  Any other failed
# check makes the run incorrect.
KNOWN_FAILURES = frozenset({"star oracle n=100 lam=1.0", "star oracle n=1000 lam=0.3",
                            "star oracle n=1000 lam=0.5", "star oracle n=1000 lam=1.0"})


def _z(samples, exact: float) -> float:
    se = float(samples.std()) / math.sqrt(len(samples))
    return (float(samples.mean()) - exact) / se


def compare(name: str, draw) -> Check:
    """One draw; ``draw`` returns {quantity: z}.  Pass if every |z| <= AGREEMENT_SE.

    Misses at 3 se are counted, not failed, so their rate stays visible.
    """
    zs: dict[str, float] = {}

    def check():
        zs.update(draw())
        return (all(abs(z) <= AGREEMENT_SE for z in zs.values()),
                " ".join(f"z_{k}={z:+.3f}" for k, z in zs.items()))
    result = attempt(name, check)
    result.comparisons = len(zs)
    result.misses_3se = sum(abs(z) > 3 for z in zs.values())
    return result


class ExactCheck:
    name = "exact-check"
    unit = "check"
    batch_engines = True
    STAR_REPLICAS = 100_000
    GRAPH_REPLICAS = 100_000
    DP_N_MAX = 20

    def __init__(self, scratch: Path):
        pass

    def warmup(self) -> None:
        sim.star_batch(3, 0.5, sim.StarState(3, 0, 1), 2, seed=0)
        sim.contact_graph_batch(GRAPH_FIXTURES[0][0], 1.0, 0, 2, seed=0)
        oracle.star_mean_absorption(3, 0.5)
        oracle.exact_contact_small(*GRAPH_FIXTURES[0])
        oracle.enumerate_closed_walks(_seq("3,4"), 0, 2)
        walks.m0_estimates(_seq("3,4"), 2)
        bounds.bounds_report(_seq("3,4"))

    def round(self, seed: int) -> list[Check]:
        checks = []
        for n, lam in STAR_FIXTURES:
            def star(n=n, lam=lam):
                exact = oracle.star_mean_absorption(n, lam).expected_time[(0, 1)]
                times, _ = sim.star_batch(n, lam, sim.StarState(n, 0, 1),
                                          self.STAR_REPLICAS, seed=seed)
                return {"time": _z(times, exact)}
            checks.append(compare(f"star_batch n={n} lam={lam}", star))
        for i, (graph, lam, root) in enumerate(GRAPH_FIXTURES):
            def graph_check(i=i, graph=graph, lam=lam, root=root):
                mean_t, mean_v = oracle.exact_contact_small(graph, lam, root)
                times, visits = sim.contact_graph_batch(graph, lam, root,
                                                        self.GRAPH_REPLICAS, seed=seed + 1 + i)
                return {"time": _z(times, mean_t), "visits": _z(visits, mean_v)}
            checks.append(compare(f"graph_batch fixture {i}", graph_check))
        for text in WALK_DEGREES:
            seq = _seq(text)
            for residue in range(seq.period):
                def dp_vs_enum(seq=seq, residue=residue):
                    table = walks.m0_estimates(seq, self.DP_N_MAX, root_residue=residue)
                    enum = [oracle.enumerate_closed_walks(seq, residue, two_n)
                            for two_n in ENUM_TWO_N]
                    dp = table.counts[:len(enum)]
                    return dp == enum, f"dp={dp} enum={enum}"
                checks.append(attempt(f"walks ({text}) residue {residue}", dp_vs_enum))
        for text in BOUNDS_DEGREES:
            def report(text=text):
                rep = bounds.bounds_report(_seq(text))
                ok = (math.isfinite(rep.lambda_g) and rep.lambda_g > 0
                      and (rep.lambda1_upper is None or rep.lambda_g <= rep.lambda1_upper))
                return ok, f"lambda_g={rep.lambda_g:.6g} lambda1_upper={rep.lambda1_upper}"
            checks.append(attempt(f"bounds_report ({text})", report))
        checks.append(attempt("golden lambda_g(3,4) = 1/sqrt(20)", lambda: _golden(
            bounds.lambda_g(_seq("3,4")), 1 / math.sqrt(20))))
        checks.append(attempt("golden lambda1_upper(3,4) = 1/(sqrt(12)-1)", lambda: _golden(
            bounds.lambda1_upper(_seq("3,4")), 1 / (math.sqrt(12) - 1))))
        for n, lam in STAR_ORACLE_POINTS:
            def star_point(n=n, lam=lam):
                e = oracle.star_mean_absorption(n, lam).expected_time[(0, 1)]
                return math.isfinite(e) and e > 0, f"E(0,1)={e:.6g}"
            checks.append(attempt(f"star oracle n={n} lam={lam}", star_point))
        return checks


def _golden(value: float, exact: float) -> tuple[bool, str]:
    return abs(value - exact) <= 1e-12 * exact, f"value={value!r} exact={exact!r}"


WORKLOADS = {w.name: w for w in (Sweep34, Lambda2, Brw34, ExactCheck)}
