"""Acceptance gate: one test per criterion, tolerances pinned.

Each test prints a single PASS line on success (visible with -rA / -s);
the pytest verdict per test is the per-criterion pass/fail signal.
Criteria 6 and 7 are statistical and take a few seconds each on one core.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from pertree.bounds import (
    charpoly_perron,
    cubic_real_roots,
    harmonic_weights_period2,
    harmonic_weights_period3,
    harmonicity_residual,
    HarmonicWeights,
    lambda1_upper,
    lambda_ell_lower_period3,
    lambda_ell_period2,
    lambda_g,
    local_bound_cubic_coeffs,
    perron_eigenvalue,
    residue_matrix,
)
from pertree.cli import main
from pertree.degrees import PeriodicDegreeSequence
from pertree.errors import NoPositiveSolution, NoRealSolution
from pertree.oracle import (
    enumerate_closed_walks,
    exact_contact_small,
    star_mean_absorption,
)
from pertree.sim import (
    Lambda2Protocol,
    StarState,
    contact_graph_batch,
    estimate_lambda2,
    star_batch,
    survival_curve,
)
from pertree.walks import closed_walk_count, level_return_count, m0_estimates


def seq(*degs):
    return PeriodicDegreeSequence(degs)


def test_criterion_1_period2_golden_bounds():
    assert lambda_g(seq(3, 4)) == pytest.approx(0.223607, abs=1e-6)
    assert lambda1_upper(seq(3, 4)) == pytest.approx(0.405827, abs=1e-6)
    assert lambda_ell_period2(3, 4) == pytest.approx(0.267949, abs=1e-6)
    print("\nACCEPTANCE 1 PASS: period-2 golden bounds within 1e-6")


def test_criterion_2_period3_tables_and_eigenvalues():
    triples = [(2, 3, 4), (3, 4, 5), (4, 6, 8), (6, 8, 10)]
    x0_refs = (11.847, 15.887, 23.693, 31.774)
    bound_refs = (0.2905, 0.2509, 0.2054, 0.1774)
    lambda1_refs = (0.5306, 0.3430, 0.2097, 0.1464)
    for triple, x0_ref, b_ref, l1_ref in zip(triples, x0_refs, bound_refs,
                                             lambda1_refs):
        x0, bound = lambda_ell_lower_period3(*triple)
        assert x0 == pytest.approx(x0_ref, abs=1e-3)
        assert bound == pytest.approx(b_ref, abs=1e-4)
        assert lambda1_upper(seq(*triple)) == pytest.approx(l1_ref, abs=1e-4)
    # spectral value: eigenvalue solve vs characteristic polynomial
    rng = random.Random(501)
    for _ in range(100):
        triple = tuple(rng.randint(1, 100) for _ in range(3))
        big = perron_eigenvalue(residue_matrix(seq(*triple)))
        ref = charpoly_perron(seq(*triple))
        assert abs(big - ref) <= 1e-10 * ref
    print("\nACCEPTANCE 2 PASS: period-3 tables and eigenvalue cross-check")


def test_criterion_3_cubic_structure():
    start = time.perf_counter()
    rng = random.Random(777)
    for _ in range(1000):
        a, b, c = (rng.randint(1, 100) for _ in range(3))
        coeffs = local_bound_cubic_coeffs(a, b, c)
        s = a + b + c
        # exact arithmetic: D(a+b+c) = -4abc
        assert ((coeffs[0] * s + coeffs[1]) * s + coeffs[2]) * s + coeffs[3] \
            == -4 * a * b * c
        res = cubic_real_roots(*map(float, coeffs))
        assert res.discriminant > 0
        assert len(res.roots) == 3 and all(r > 0 for r in res.roots)
        assert res.roots[-1] >= s - 1e-9 * s
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: 1000 random triples in {elapsed:.2f}s")


def test_criterion_4_harmonic_weight_boundaries():
    rng = random.Random(909)
    for _ in range(100):
        a, b = rng.randint(1, 60), rng.randint(1, 60)
        bound = lambda_ell_period2(a, b)
        w = harmonic_weights_period2(a, b, bound * (1 - 1e-6))
        assert all(v > 0 for v in w.g_values.values())
        res = harmonicity_residual(seq(a, b), bound * (1 - 1e-6), w)
        assert max(abs(r) for r in res) < 1e-10
        with pytest.raises(NoRealSolution):
            harmonic_weights_period2(a, b, bound * (1 + 1e-6))
    for _ in range(100):
        triple = tuple(rng.randint(1, 60) for _ in range(3))
        _, bound = lambda_ell_lower_period3(*triple)
        w = harmonic_weights_period3(*triple, bound * (1 - 1e-6))
        assert all(v > 0 for v in w.g_values.values())
        res = harmonicity_residual(seq(*triple), bound * (1 - 1e-6), w)
        assert max(abs(r) for r in res) < 1e-10
        with pytest.raises(NoPositiveSolution):
            harmonic_weights_period3(*triple, bound * (1 + 1e-6))
    # fixed weights are superharmonic strictly below the bound
    for a, b in [(3, 4), (2, 9), (7, 7), (12, 5)]:
        fixed = HarmonicWeights({0: 1 / math.sqrt(b), 1: 1 / math.sqrt(a)},
                                0.0, branch="fixed")
        for frac in (0.3, 0.6, 0.9, 0.999):
            lam = frac * lambda_ell_period2(a, b)
            assert all(r <= 1e-12
                       for r in harmonicity_residual(seq(a, b), lam, fixed))
    print("\nACCEPTANCE 4 PASS: harmonic boundary behavior on 200 random shapes")


def test_criterion_5_walk_suite():
    start = time.perf_counter()
    # supermultiplicativity, exact, n <= 20
    for degs in [(1, 1), (3, 4), (1, 10)]:
        full = [1] + m0_estimates(seq(*degs), 20).counts
        for m, n in itertools.combinations_with_replacement(range(21), 2):
            if m + n <= 20:
                assert full[m] * full[n] <= full[m + n]
    # enumeration == DP for two_n <= 8
    for degs in [(2,), (1, 1), (3, 2), (2, 3, 1)]:
        for residue in range(len(degs)):
            for two_n in (0, 2, 4, 6, 8):
                assert enumerate_closed_walks(seq(*degs), residue, two_n) == \
                    closed_walk_count(seq(*degs), residue, two_n)
    # homogeneous level-return identity, n <= 15
    for d in (2, 3, 4):
        for n in range(1, 16):
            assert level_return_count(d, d, n)[1] == \
                math.comb(2 * n, n) * d ** n
    # good-path inequality, d in {2,3}, n <= 10
    for d in (2, 3):
        for n in range(1, 11):
            assert closed_walk_count(seq(d,), 0, 2 * n) * 2 * n >= \
                math.comb(2 * n, n) * d ** n
    # Fekete running max, bounded by sqrt(a)+sqrt(b)
    for a, b in [(3, 4), (1, 10), (2, 2)]:
        rmax = m0_estimates(seq(a, b), 20).running_max()
        assert rmax == sorted(rmax)
        assert rmax[-1] <= math.sqrt(a) + math.sqrt(b)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5 PASS: walk-count suite in {elapsed:.2f}s")


GRAPH_FIXTURES = [
    ({0: [1], 1: [0]}, 1.0, 0),
    ({0: [1], 1: [0, 2], 2: [1]}, 0.5, 1),
    ({0: [1, 2, 3], 1: [0, 4], 2: [0, 5], 3: [0, 6],
      4: [1], 5: [2], 6: [3]}, 0.8, 0),
]


def test_criterion_6_simulator_vs_oracle():
    start = time.perf_counter()
    replicas = 100_000
    lines = []
    for n, lam in itertools.product((3, 5, 10), (0.3, 0.5, 1.0)):
        exact = star_mean_absorption(n, lam).expected_time[(0, 1)]
        times, _ = star_batch(n, lam, StarState(n, 0, 1), replicas, seed=61)
        se = float(times.std()) / math.sqrt(replicas)
        dev = abs(float(times.mean()) - exact)
        assert dev <= 3 * se, (n, lam, dev, se)
        lines.append(f"star({n},{lam}): |dev|={dev:.4f} <= 3se={3 * se:.4f}")
    for graph, lam, root in GRAPH_FIXTURES:
        mt, mv = exact_contact_small(graph, lam, root)
        times, visits = contact_graph_batch(graph, lam, root, replicas, seed=62)
        se_t = float(times.std()) / math.sqrt(replicas)
        se_v = float(visits.std()) / math.sqrt(replicas)
        assert abs(float(times.mean()) - mt) <= 3 * se_t
        assert abs(float(visits.mean()) - mv) <= 3 * se_v
        lines.append(f"graph(|V|={len(graph)},lam={lam}): time and visit "
                     "means within 3 se")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 PASS: 12 fixtures at 1e5 replicas in {elapsed:.1f}s")
    for line in lines:
        print("  " + line)


def test_criterion_7_threshold_sanity():
    start = time.perf_counter()
    # (i) BRW on (3,4) around lambda_ell
    lam_ell = lambda_ell_period2(3, 4)
    sub = survival_curve(seq(3, 4), 0.8 * lam_ell, 100.0, 1000, seed=71,
                         criterion="local", mode="brw",
                         brw_population_cap=2000, max_events=100_000)
    sup = survival_curve(seq(3, 4), 1.3 * lam_ell, 100.0, 1000, seed=71,
                         criterion="local", mode="brw",
                         brw_population_cap=2000, max_events=100_000)
    assert 1.0 - sub.probability > 0.95       # local extinction below
    assert sup.probability > 0.2              # local survival above
    assert sup.ci_low > sub.ci_high           # CI-separated
    # (ii) bisected threshold on (1,n) inside the loose asymptotic band
    ratios = []
    for n in (50, 100, 200):
        pred = math.sqrt(0.5 * math.log(n) / n)
        proto = Lambda2Protocol(lam_lo=0.3 * pred, lam_hi=4.0 * pred,
                                horizon=150.0, replicas=300, seed=72,
                                tolerance=0.1 * pred, max_events=10_000)
        lo, hi = estimate_lambda2(seq(1, n), proto)
        ratio = 0.5 * (lo + hi) / pred
        ratios.append((n, ratio))
        assert 0.5 <= ratio <= 2.5, (n, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(f"\nACCEPTANCE 7 PASS: brw separation "
          f"({1 - sub.probability:.3f} extinct vs {sup.probability:.3f} "
          f"surviving) and lambda_2 ratios "
          + ", ".join(f"n={n}: {r:.2f}" for n, r in ratios)
          + f" in {elapsed:.0f}s")


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    commands = {
        "simulate.csv": ["simulate", "--degrees", "3,4", "--lambda", "0.3",
                         "--horizon", "20", "--replicas", "200", "--seed", "7",
                         "--max-events", "20000"],
        "sweep.csv": ["sweep", "--degrees", "1,50", "--lambda-grid",
                      "0.05:0.25:0.05", "--horizon", "30", "--replicas",
                      "200", "--seed", "8", "--criterion", "local",
                      "--max-events", "10000"],
        "star.csv": ["star", "--n", "10", "--lambda", "0.5", "--replicas",
                     "500", "--seed", "9"],
    }
    for name, argv in commands.items():
        first, second = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    capsys.readouterr()
    print("\nACCEPTANCE 8 PASS: stochastic CSV outputs byte-identical on rerun")
