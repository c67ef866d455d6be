"""Exact oracles: star absorption solves, subset chains, walk enumeration."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertree.degrees import PeriodicDegreeSequence
from pertree.errors import LimitExceeded, SolveFailure, TooLarge
from pertree.oracle import (
    brw_survival,
    enumerate_closed_walks,
    exact_contact_small,
    star_mean_absorption,
)
from pertree.sim import SimConfig, run_brw
from pertree.walks import closed_walk_count

# Expected absorption times from (0, 1), frozen from an independent dense
# solve with a different state ordering.
STAR_GOLDEN = {
    (3, 0.3): 1.4378854679802953,
    (3, 0.5): 1.7526785714285715,
    (3, 1.0): 2.7428571428571433,
    (5, 0.3): 1.7142010001997072,
    (5, 0.5): 2.276102543290044,
    (5, 1.0): 4.535439560439559,
    (10, 0.3): 2.3827869448334544,
    (10, 0.5): 3.804106978366543,
    (10, 1.0): 14.81880649062323,
}

# Depth-2 truncation of the (1,3) tree rooted at the degree-3 vertex.
BALL_1_3 = {0: [1, 2, 3], 1: [0, 4], 2: [0, 5], 3: [0, 6],
            4: [1], 5: [2], 6: [3]}


@pytest.mark.parametrize("key", sorted(STAR_GOLDEN))
def test_star_absorption_golden(key):
    n, lam = key
    solve = star_mean_absorption(n, lam)
    assert solve.expected_time[(0, 1)] == pytest.approx(STAR_GOLDEN[key],
                                                        rel=1e-10)
    assert solve.expected_time[(0, 0)] == 0.0
    assert solve.solve_residual < 1e-8


def fraction_star_times(n, lam):
    """Exact times by Fraction Gaussian elimination in natural code order.

    Shares nothing with the float solve but the chain: unknown x_i for code
    i = 2j + center, i >= 1, with x_0 = 0; the band has half-width 2, and the
    chain's matrix is an M-matrix, so no pivoting is needed.
    """
    size = 2 * n + 2
    rows, rhs = {}, {}
    for i in range(1, size):
        j, center = divmod(i, 2)
        rates = {i + 1: lam * j * (1 - center), i + 2: lam * (n - j) * center,
                 i - 1: center, i - 2: j}
        row = {i: sum(rates.values(), Fraction(0))}
        for k, rate in rates.items():
            if rate and k >= 1:
                row[k] = row.get(k, 0) - rate
        rows[i], rhs[i] = row, Fraction(1)
    for p in range(1, size):
        for q in range(p + 1, min(p + 3, size)):
            if p in rows[q]:
                f = rows[q].pop(p) / rows[p][p]
                for k, v in rows[p].items():
                    if k != p:
                        rows[q][k] = rows[q].get(k, 0) - f * v
                rhs[q] -= f * rhs[p]
    x = [Fraction(0)] * size
    for p in range(size - 1, 0, -1):
        known = sum(v * x[k] for k, v in rows[p].items() if k != p)
        x[p] = (rhs[p] - known) / rows[p][p]
    return {divmod(i, 2): t for i, t in enumerate(x)}


def assert_matches_fraction(n, lam):
    times = star_mean_absorption(n, float(lam)).expected_time
    exact = fraction_star_times(n, Fraction(lam))
    assert times.keys() == exact.keys()
    for state, t in exact.items():
        assert abs(Fraction(times[state]) - t) <= 1e-12 * t, state


@pytest.mark.parametrize("n,lam", [
    (n, lam) for n in (10, 100)
    for lam in (Fraction(3, 10), Fraction(1, 2), Fraction(1))] + [(1000, Fraction(1, 2))])
def test_star_absorption_matches_fractions(n, lam):
    assert_matches_fraction(n, lam)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40),
       lam=st.fractions(min_value=0, max_value=5, max_denominator=64))
def test_star_absorption_matches_fractions_property(n, lam):
    # the reference takes the float lambda exactly, so both solve one chain
    assert_matches_fraction(n, float(lam))


@pytest.mark.parametrize("n,lam", [(100, 1.0), (1000, 0.3), (1000, 0.5), (1000, 1.0)])
def test_star_absorption_large_points_are_positive(n, lam):
    # the banded solve raised SolveFailure at these points
    solve = star_mean_absorption(n, lam)
    times = [t for state, t in solve.expected_time.items() if state != (0, 0)]
    assert all(math.isfinite(t) and t > 0 for t in times)
    assert solve.solve_residual < 1e-8


def test_star_absorption_overflow():
    with pytest.raises(SolveFailure, match="overflow"):
        star_mean_absorption(2000, 5.0)


def test_star_absorption_lambda_zero():
    solve = star_mean_absorption(6, 0.0)
    assert solve.expected_time[(0, 1)] == pytest.approx(1.0, abs=1e-12)
    # with no transmission the leaves die independently: E from (j,0) = H_j
    for j in range(1, 7):
        harmonic = sum(1.0 / i for i in range(1, j + 1))
        assert solve.expected_time[(j, 0)] == pytest.approx(harmonic, abs=1e-12)


def test_star_absorption_monotone_in_state():
    solve = star_mean_absorption(8, 0.4)
    times = solve.expected_time
    for j in range(8):
        assert times[(j + 1, 1)] > times[(j, 1)]
        assert times[(j, 1)] >= times[(j, 0)]


def test_star_absorption_too_large():
    with pytest.raises(TooLarge):
        star_mean_absorption(2001, 0.5)


def test_star_absorption_bad_size():
    with pytest.raises(ValueError, match="star size must be >= 0"):
        star_mean_absorption(-1, 0.5)
    assert star_mean_absorption(0, 0.5).expected_time == {(0, 0): 0.0, (0, 1): 1.0}


def test_lemma4_exponent_trend():
    # With lam = sqrt(0.8 log n / n) the absorption time from (ceil(K), 1)
    # grows on the exp(lam^2 n) scale; at these sizes the log-ratio stays
    # below 1.5.
    for n in (20, 40, 80):
        lam = math.sqrt(0.8 * math.log(n) / n)
        k = math.ceil(lam * n / (lam + 1))
        solve = star_mean_absorption(n, lam)
        ratio = math.log(solve.expected_time[(k, 1)]) / (lam * lam * n)
        assert 0.0 < ratio <= 1.5


def test_exact_contact_single_vertex():
    for lam in (0.0, 0.7, 3.0):
        mean_time, visits = exact_contact_small({0: []}, lam, 0)
        assert mean_time == pytest.approx(1.0, abs=1e-12)
        assert visits == pytest.approx(0.0, abs=1e-12)


def test_exact_contact_edge():
    mean_time, visits = exact_contact_small({0: [1], 1: [0]}, 1.0, 0)
    assert mean_time == pytest.approx(1.5, rel=1e-10)
    assert visits == pytest.approx(0.25, rel=1e-10)


def test_exact_contact_path3():
    mean_time, visits = exact_contact_small({0: [1], 1: [0, 2], 2: [1]}, 0.5, 1)
    assert mean_time == pytest.approx(1.5, rel=1e-10)
    assert visits == pytest.approx(0.175, rel=1e-10)


def test_exact_contact_ball_goldens():
    mt, mv = exact_contact_small(BALL_1_3, 0.3, 0)
    assert mt == pytest.approx(1.5290494083635435, rel=1e-9)
    assert mv == pytest.approx(0.11519684846403903, rel=1e-9)
    mt, mv = exact_contact_small(BALL_1_3, 0.8, 0)
    assert mt == pytest.approx(3.0011075523901622, rel=1e-9)
    assert mv == pytest.approx(0.8906874944080515, rel=1e-9)


def test_exact_contact_rejects_unknown_root():
    with pytest.raises(ValueError, match="root 5 is not a vertex"):
        exact_contact_small({0: [1], 1: [0]}, 1.0, 5)


def test_exact_contact_too_large():
    adj = {i: [] for i in range(15)}
    with pytest.raises(TooLarge):
        exact_contact_small(adj, 0.5, 0)


def star_graph(leaves):
    return {0: list(range(1, leaves + 1)), **{i: [0] for i in range(1, leaves + 1)}}


@pytest.mark.parametrize("leaves, lam", [(n, lam) for n in range(1, 11)
                                         for lam in (0.0, 0.3, 1.0, 2.5)] + [(12, 1.0)])
def test_exact_contact_on_a_star_matches_the_star_oracle(leaves, lam):
    # Two independent solves of one chain: the subset chain from the center
    # or a leaf, and the star chain from (0 leaves, center) or (1 leaf, no center).
    times = star_mean_absorption(leaves, lam).expected_time
    graph = star_graph(leaves)
    assert exact_contact_small(graph, lam, 0)[0] == pytest.approx(times[(0, 1)], rel=1e-10)
    assert exact_contact_small(graph, lam, 1)[0] == pytest.approx(times[(1, 0)], rel=1e-10)


def test_exact_contact_stays_accurate_when_times_are_long():
    # About 1.2e5 from the center: a Schur diagonal taken as D_l - C_l M_{l+1}
    # is off by 2.7e-11 relative here, a sparse LU of the whole chain by
    # 7e-10, the subtraction-free diagonal by about 1e-15.
    times = star_mean_absorption(10, 5.0).expected_time
    assert exact_contact_small(star_graph(10), 5.0, 0)[0] == pytest.approx(times[(0, 1)],
                                                                           rel=1e-12)


def full_chain_solve(neighbors, lam, root):
    """Reference: one dense solve of the first-step equations over all subsets."""
    bit = {v: 1 << i for i, v in enumerate(sorted(neighbors))}
    size = (1 << len(neighbors)) - 1
    gen, rhs = np.zeros((size, size)), np.zeros((size, 2))
    rhs[:, 0] = 1.0
    for s in range(1, size + 1):
        for v in neighbors:
            if s & bit[v]:
                rate, target = 1.0, s & ~bit[v]
            else:
                rate = lam * sum(1 for w in neighbors[v] if s & bit[w])
                target = s | bit[v]
                if v == root:
                    rhs[s - 1, 1] += rate
            gen[s - 1, s - 1] += rate
            if target:
                gen[s - 1, target - 1] -= rate
    x = np.linalg.solve(gen, rhs)[bit[root] - 1]
    return float(x[0]), float(x[1])


def test_exact_contact_matches_the_full_chain_solve():
    rng = random.Random(19)
    for _ in range(30):
        labels = rng.sample(range(100), rng.randint(1, 8))
        graph = {v: [] for v in labels}
        for i, v in enumerate(labels):
            for w in labels[:i]:
                if rng.random() < 0.4:
                    graph[v].append(w)
                    graph[w].append(v)
        root = rng.choice(labels)
        for lam in (0.0, 0.3, 1.0):
            got, want = exact_contact_small(graph, lam, root), full_chain_solve(graph, lam, root)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (graph, lam, root)


def test_enumeration_basics():
    assert enumerate_closed_walks(PeriodicDegreeSequence((2,)), 0, 2) == 3
    assert enumerate_closed_walks(PeriodicDegreeSequence((3, 4)), 1, 0) == 1


def test_enumeration_matches_dp():
    for degs in [(2,), (1, 1), (3, 2), (2, 3, 1)]:
        seq = PeriodicDegreeSequence(degs)
        for residue in range(len(degs)):
            for two_n in (2, 4, 6, 8):
                assert enumerate_closed_walks(seq, residue, two_n) == \
                    closed_walk_count(seq, residue, two_n)


def test_enumeration_rotation():
    # residue r of (a_0, ..., a_{k-1}) is residue 0 of the sequence rotated by r
    for degs in [(2, 3), (1, 2, 5), (3, 1, 1, 2)]:
        seq = PeriodicDegreeSequence(degs)
        for r in range(len(degs)):
            rotated = PeriodicDegreeSequence(degs[r:] + degs[:r])
            for two_n in (0, 2, 4, 6):
                assert enumerate_closed_walks(seq, r, two_n) == \
                    enumerate_closed_walks(rotated, 0, two_n)


def test_oracle_imports_nothing_from_the_tree():
    # the walk oracle must stay independent of the simulator's tree
    import pertree.oracle

    parsed = ast.parse(Path(pertree.oracle.__file__).read_text())
    for node in ast.walk(parsed):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            assert module not in (".tree", "pertree.tree"), module
            assert not (module in (".", "pertree")
                        and any(a.name == "tree" for a in node.names)), module
        elif isinstance(node, ast.Import):
            assert all(not a.name.startswith("pertree.tree") for a in node.names)


def test_enumeration_limit():
    with pytest.raises(LimitExceeded):
        enumerate_closed_walks(PeriodicDegreeSequence((2,)), 0, 10)


def test_brw_survival_lambda_zero_is_the_lifetime_tail():
    # with no births the one particle lives an Exp(1) time
    for degs, residue in [((3, 4), 0), ((1, 2, 5), 2), ((2,), 0)]:
        for horizon in (0.5, 2.0, 6.0, 20.0):
            got = brw_survival(PeriodicDegreeSequence(degs), 0.0, horizon, residue)
            assert got == pytest.approx(math.exp(-horizon), abs=1e-9)


def test_brw_survival_rejects_bad_rate_and_horizon():
    seq = PeriodicDegreeSequence((3, 4))
    for lam in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda"):
            brw_survival(seq, lam, 1.0)
    for horizon in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon"):
            brw_survival(seq, 0.3, horizon)


# (degrees, lambda, horizon, root residue).  Seed, replica count and the
# |z| <= 4 tolerance were fixed before the first run.
BRW_SURVIVAL_CASES = [((3, 4), 0.3, 6.0, 0), ((3, 4), 0.2, 6.0, 1),
                      ((1, 2, 5), 0.25, 5.0, 2), ((2,), 0.4, 4.0, 0)]
BRW_SURVIVAL_SEED = 123
BRW_SURVIVAL_REPLICAS = 20_000


@pytest.mark.parametrize("degs,lam,horizon,residue", BRW_SURVIVAL_CASES)
def test_brw_survival_matches_the_engine(degs, lam, horizon, residue):
    seq = PeriodicDegreeSequence(degs)
    exact = brw_survival(seq, lam, horizon, residue)
    config = SimConfig(seq, lam, horizon, root_residue=residue, seed=BRW_SURVIVAL_SEED,
                       replicas=BRW_SURVIVAL_REPLICAS, mode="brw")
    outcomes = [run_brw(config, i) for i in range(BRW_SURVIVAL_REPLICAS)]
    assert not any(o.truncated for o in outcomes)
    alive = sum(not o.extinct for o in outcomes) / BRW_SURVIVAL_REPLICAS
    z = (alive - exact) / math.sqrt(exact * (1 - exact) / BRW_SURVIVAL_REPLICAS)
    assert abs(z) <= 4.0, (exact, alive, z)
