"""Closed-form bounds, cubic machinery, harmonic weights, asymptotics."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pertree.bounds import (
    bounds_report,
    charpoly_perron,
    cubic_discriminant,
    cubic_real_roots,
    harmonic_weights_period2,
    harmonic_weights_period3,
    harmonicity_residual,
    HarmonicWeights,
    lambda1_upper,
    lambda2_asymptotic,
    lambda_ell_lower_period3,
    lambda_ell_period2,
    lambda_g,
    local_bound_cubic_coeffs,
    perron_eigenvalue,
    residue_matrix,
)
from pertree.degrees import PeriodicDegreeSequence
from pertree.errors import (
    DegenerateLeadingCoefficient,
    InvalidShape,
    NonConvergence,
    NoPositiveSolution,
    NoRealSolution,
    Subcritical,
)


def seq(*degs):
    return PeriodicDegreeSequence(degs)


# ---------------------------------------------------------------------------
# lambda_g


def test_lambda_g_period2_golden():
    assert lambda_g(seq(3, 4)) == pytest.approx(1 / math.sqrt(20), abs=1e-12)


def test_lambda_g_homogeneous():
    assert lambda_g(seq(4)) == pytest.approx(0.2, abs=1e-12)


def test_lambda_g_period3():
    # largest root of x^3 - 9x - 25 is about 3.92118
    assert lambda_g(seq(2, 3, 4)) == pytest.approx(0.255025415655334, abs=1e-10)


def test_lambda_g_rotation_invariant():
    for degs in [(2, 3, 4), (1, 5, 2), (7, 2, 9, 4)]:
        vals = {lambda_g(seq(*degs[i:] + degs[:i])) for i in range(len(degs))}
        assert max(vals) - min(vals) < 1e-12


def test_power_iteration_matches_closed_forms():
    rng = random.Random(20240)
    for _ in range(100):
        a, b = rng.randint(1, 100), rng.randint(1, 100)
        big = perron_eigenvalue(residue_matrix(seq(a, b)))
        assert abs(big - math.sqrt((a + 1) * (b + 1))) <= 1e-10 * big
    for _ in range(100):
        degs = tuple(rng.randint(1, 100) for _ in range(3))
        big = perron_eigenvalue(residue_matrix(seq(*degs)))
        ref = charpoly_perron(seq(*degs))
        assert abs(big - ref) <= 1e-10 * ref


def test_perron_matches_numpy_eigenvalues_general_k():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 6)
        degs = tuple(rng.randint(1, 30) for _ in range(k))
        mat = residue_matrix(seq(*degs))
        ref = max(abs(np.linalg.eigvals(mat)))
        assert perron_eigenvalue(mat) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# The transfer-matrix trace: Perron eigenvalue and band edge of every period


def _shapes(seed, periods, count):
    """Degree sequences with log-uniform degrees in [1, 10^6]."""
    rng = random.Random(seed)
    return [tuple(round(10 ** rng.uniform(0, 6)) for _ in range(rng.choice(periods)))
            for _ in range(count)]


def test_trace_root_matches_the_perron_eigenvalue_of_every_period():
    for degs in _shapes(2027, range(1, 9), 400):
        big = perron_eigenvalue(residue_matrix(seq(*degs)))
        assert abs(charpoly_perron(seq(*degs)) - big) <= 1e-12 * big, degs


def test_trace_root_matches_the_paper_closed_forms():
    # lambda_ell_lower_period3 is itself off by a few 1e-12, hence 1e-11.
    for degs in _shapes(2026, (1, 2, 3), 300):
        got = bounds_report(seq(*degs)).lambda_ell_lower
        if len(degs) == 3:
            ref = lambda_ell_lower_period3(*degs)[1]
        else:
            ref = lambda_ell_period2(degs[0], degs[-1])
        assert abs(got - ref) <= 1e-11 * ref, degs


def test_band_edge_squared_brackets_the_cubic_root_exactly():
    # y (y - s)^2 - 4abc rises past s, where it is -4abc, so a sign change
    # across [x0 (1 - 1e-13), x0 (1 + 1e-13)] above s pins its largest root.
    for a, b, c in _shapes(2028, (3,), 200):
        s = a + b + c
        x0 = Fraction(bounds_report(seq(a, b, c)).x0)
        lo, hi = x0 * (1 - Fraction(1, 10 ** 13)), x0 * (1 + Fraction(1, 10 ** 13))
        assert lo > s, (a, b, c)
        assert lo * (lo - s) ** 2 < 4 * a * b * c < hi * (hi - s) ** 2, (a, b, c)


def test_lambda_ell_of_longer_periods_pinned():
    assert bounds_report(seq(2, 3, 4, 5)).lambda_ell_lower == pytest.approx(
        0.26801248376045705, rel=1e-14)
    assert bounds_report(seq(1, 2, 3, 50)).lambda_ell_lower == pytest.approx(
        0.135145664429903, rel=1e-14)


def test_x0_is_reported_for_period_3_only():
    for degs in [(4,), (3, 4), (2, 3, 4), (2, 3, 4, 5), (1, 2, 3, 4, 5)]:
        rep = bounds_report(seq(*degs))
        assert (rep.x0 is not None) == (len(degs) == 3)
        assert rep.notes == []


def test_trace_overflow_is_a_numerical_error():
    # (1000 + 2)^200 is past the largest double.
    with pytest.raises(NonConvergence, match="overflows"):
        charpoly_perron(seq(*[1000] * 200))


# ---------------------------------------------------------------------------
# lambda_1 upper bound


def test_lambda1_upper_goldens():
    assert lambda1_upper(seq(3, 4)) == pytest.approx(1 / (math.sqrt(12) - 1),
                                                     abs=1e-12)
    assert lambda1_upper(seq(2, 3, 4)) == pytest.approx(0.5306449753401058,
                                                        abs=1e-12)


def test_lambda1_upper_subcritical():
    with pytest.raises(Subcritical):
        lambda1_upper(seq(1, 1))


def test_lambda_g_below_lambda1_upper():
    rng = random.Random(99)
    for _ in range(50):
        degs = tuple(rng.randint(2, 40) for _ in range(rng.randint(1, 4)))
        assert lambda_g(seq(*degs)) <= lambda1_upper(seq(*degs)) + 1e-12


# ---------------------------------------------------------------------------
# lambda_ell, period 2


def test_lambda_ell_period2_values():
    assert lambda_ell_period2(3, 4) == pytest.approx(0.267949, abs=1e-6)
    assert lambda_ell_period2(4, 4) == 0.25
    assert lambda_ell_period2(1, 1) == 0.5


def test_period2_bound_comparison_sign_identity():
    # sign(1/(sqrt(a)+sqrt(b)) - 1/(sqrt(ab)-1)) == sign((sqrt(a)-1)(sqrt(b)-1) - 2)
    for a in range(2, 51):
        for b in range(2, 51):
            lhs = 1 / (math.sqrt(a) + math.sqrt(b)) - 1 / (math.sqrt(a * b) - 1)
            rhs = (math.sqrt(a) - 1) * (math.sqrt(b) - 1) - 2
            if abs(rhs) > 1e-9:
                assert math.copysign(1, lhs) == math.copysign(1, rhs)


# ---------------------------------------------------------------------------
# Cubic solver


def _poly(c, x):
    return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]


def test_cubic_single_real_root():
    res = cubic_real_roots(1, 0, -9, -25)
    assert res.complex_pair and res.discriminant < 0
    assert len(res.roots) == 1
    assert res.roots[0] == pytest.approx(3.9211778066524037, abs=1e-10)


def test_cubic_three_real_roots():
    res = cubic_real_roots(1, 0, -1, 0)
    assert not res.complex_pair and res.discriminant > 0
    assert res.roots == pytest.approx([-1, 0, 1], abs=1e-12)


def test_cubic_bound_polynomial_234():
    res = cubic_real_roots(1, -18, 81, -96)
    assert res.roots[-1] == pytest.approx(11.846672027800672, abs=1e-9)


def test_cubic_double_root():
    # (x-1)^2 (x-4) = x^3 - 6x^2 + 9x - 4
    res = cubic_real_roots(1, -6, 9, -4)
    assert res.roots == pytest.approx([1, 1, 4], abs=1e-6)


def test_cubic_triple_root():
    res = cubic_real_roots(1, -6, 12, -8)    # (x-2)^3
    assert res.roots == pytest.approx([2, 2, 2], abs=1e-4)


def test_cubic_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeadingCoefficient):
        cubic_real_roots(0, 1, 2, 3)


def test_cubic_residual_invariant():
    rng = random.Random(5)
    for _ in range(300):
        c = tuple(rng.uniform(-10, 10) for _ in range(4))
        if abs(c[0]) < 1e-3:
            continue
        res = cubic_real_roots(*c)
        for r in res.roots:
            assert abs(_poly(c, r)) <= 1e-9 * max(1.0, abs(c[3]))
        assert (res.discriminant > 0) == (len(res.roots) == 3 and
                                          not res.complex_pair) or \
            abs(res.discriminant) <= 1e-6


def test_cubic_one_real_root_next_to_a_double_root():
    # x^3 + x^2 + 1e-99: the depressed radicand cancels to just below zero.
    res = cubic_real_roots(1.0, 1.0, 0.0, 1e-99)
    assert res.complex_pair
    assert res.roots == [pytest.approx(-1.0, rel=1e-15)]


coefficient = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(c=st.tuples(coefficient, coefficient, coefficient, coefficient))
def test_cubic_residual_and_order_property(c):
    assume(abs(c[0]) >= 1e-2)
    res = cubic_real_roots(*c)
    assert res.roots == sorted(res.roots)
    assert len(res.roots) == (1 if res.complex_pair else 3)
    # each root is an exact root of a cubic within 1e-12 of c, normwise
    norm = max(abs(ci) for ci in c)
    for r in res.roots:
        assert abs(_poly(c, r)) <= 1e-12 * norm * sum(abs(r) ** i for i in range(4))


@settings(max_examples=300, deadline=None)
@given(r=st.integers(-20, 20), s=st.integers(-20, 20), t=st.integers(-20, 20),
       lead=st.sampled_from([1.0, -2.0, 3.5]), real=st.booleans())
def test_cubic_discriminant_branch_property(r, s, t, lead, real):
    if real:
        # lead (x - r)(x - s)(x - t) with distinct integer roots
        assume(len({r, s, t}) == 3)
        want = sorted((r, s, t))
        monic = (1, -(r + s + t), r * s + r * t + s * t, -r * s * t)
    else:
        # lead (x - r)(x^2 + s x + q) with q > s^2/4: one real root, r
        q = s * s // 4 + abs(t) + 1
        want = [r]
        monic = (1, s - r, q - r * s, -r * q)
    res = cubic_real_roots(*(lead * m for m in monic))
    assert (res.discriminant > 0) == real
    assert res.complex_pair == (not real)
    assert res.roots == pytest.approx(want, abs=1e-9)


def test_discriminant_formula():
    # 18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2 on a pinned example
    assert cubic_discriminant(1, -6, 11, -6) == pytest.approx(4.0)   # roots 1,2,3


# ---------------------------------------------------------------------------
# Period-3 local bound


TABLE = [
    ((2, 3, 4), 11.847, 0.2905),
    ((3, 4, 5), 15.887, 0.2509),
    ((4, 6, 8), 23.693, 0.2054),
    ((6, 8, 10), 31.774, 0.1774),
]


@pytest.mark.parametrize("degs,x0_ref,bound_ref", TABLE)
def test_period3_table(degs, x0_ref, bound_ref):
    x0, bound = lambda_ell_lower_period3(*degs)
    assert x0 == pytest.approx(x0_ref, abs=1e-3)
    assert bound == pytest.approx(bound_ref, abs=1e-4)


def test_period3_homogeneous_collapses():
    # D(x) = (x-d)^2 (x-4d), so x0 = 4d and the bound matches 1/(2 sqrt(d))
    for d in (2, 5, 9):
        x0, bound = lambda_ell_lower_period3(d, d, d)
        assert x0 == pytest.approx(4 * d, rel=1e-9)
        assert bound == pytest.approx(lambda_ell_period2(d, d), rel=1e-9)


def test_period3_bound_permutation_invariant():
    import itertools
    base = lambda_ell_lower_period3(2, 5, 11)
    for p in itertools.permutations((2, 5, 11)):
        x0, bound = lambda_ell_lower_period3(*p)
        assert x0 == pytest.approx(base[0], rel=1e-12)
        assert bound == pytest.approx(base[1], rel=1e-12)


def test_cubic_structure_random_triples():
    rng = random.Random(1234)
    for _ in range(200):
        a, b, c = (rng.randint(1, 100) for _ in range(3))
        coeffs = local_bound_cubic_coeffs(a, b, c)
        s = a + b + c
        # exact integer evaluation at the sum
        assert _poly(coeffs, s) == -4 * a * b * c
        res = cubic_real_roots(*map(float, coeffs))
        assert res.discriminant > 0
        assert len(res.roots) == 3
        assert all(r > 0 for r in res.roots)
        assert res.roots[-1] >= s - 1e-9 * s


# ---------------------------------------------------------------------------
# Harmonic weights


def test_period2_weights_at_boundary():
    lam0 = lambda_ell_period2(3, 4)
    w = harmonic_weights_period2(3, 4, lam0)
    assert w.g_values[0] == pytest.approx(0.5, abs=1e-6)               # 1/sqrt(4)
    assert w.g_values[1] == pytest.approx(1 / math.sqrt(3), abs=1e-6)


def test_period2_weights_interior():
    w = harmonic_weights_period2(3, 4, 0.25)
    assert w.g_values[0] == pytest.approx(0.3517324172956866, abs=1e-10)
    assert w.quadratic_roots[1] == pytest.approx(0.7107675827043134, abs=1e-6)
    res = harmonicity_residual(seq(3, 4), 0.25, w)
    assert max(abs(r) for r in res) < 1e-10


def test_period2_weights_above_bound_fail():
    with pytest.raises(NoRealSolution):
        harmonic_weights_period2(3, 4, 0.30)


def test_period3_weights_interior():
    w = harmonic_weights_period3(2, 3, 4, 0.28)
    assert all(v > 0 for v in w.g_values.values())
    res = harmonicity_residual(seq(2, 3, 4), 0.28, w)
    assert max(abs(r) for r in res) < 1e-10


def test_period3_weights_at_boundary_double_root():
    _, bound = lambda_ell_lower_period3(2, 3, 4)
    w = harmonic_weights_period3(2, 3, 4, bound)
    assert all(v > 0 for v in w.g_values.values())
    lo, hi = w.quadratic_roots
    assert hi - lo < 1e-3 * hi      # nearly coincident roots at the bound


def test_period3_symmetric_weights_equal():
    w = harmonic_weights_period3(5, 5, 5, 0.2)
    vals = list(w.g_values.values())
    assert max(vals) - min(vals) < 1e-9


@pytest.mark.parametrize("degs", [(2, 7), (3, 4), (10, 3), (5, 5)])
def test_period2_boundary_epsilon(degs):
    a, b = degs
    bound = lambda_ell_period2(a, b)
    w = harmonic_weights_period2(a, b, bound * (1 - 1e-6))
    assert all(v > 0 for v in w.g_values.values())
    with pytest.raises(NoRealSolution):
        harmonic_weights_period2(a, b, bound * (1 + 1e-6))


@pytest.mark.parametrize("degs", [(2, 3, 4), (6, 8, 10), (2, 9, 5), (3, 3, 7)])
def test_period3_boundary_epsilon(degs):
    _, bound = lambda_ell_lower_period3(*degs)
    w = harmonic_weights_period3(*degs, bound * (1 - 1e-6))
    assert all(v > 0 for v in w.g_values.values())
    with pytest.raises(NoPositiveSolution):
        harmonic_weights_period3(*degs, bound * (1 + 1e-6))


def test_period3_weights_pinned():
    # Pinned to the values of the former period-3 hand elimination.
    w = harmonic_weights_period3(2, 3, 4, 0.28)
    assert w.g_values == pytest.approx(
        {0: 0.3815068260151142, 1: 0.4751217460668, 2: 0.4889016233409952},
        rel=1e-12)
    assert w.quadratic_roots == pytest.approx(
        (0.3815068260151142, 0.5943673946408902), rel=1e-12)
    _, bound = lambda_ell_lower_period3(6, 8, 10)
    assert bound == pytest.approx(0.17740559393925337, rel=1e-12)
    w = harmonic_weights_period3(6, 8, 10, 0.9 * bound)
    assert w.g_values == pytest.approx(
        {0: 0.20454235557551587, 1: 0.22902484655906208, 2: 0.2370966950437093},
        rel=1e-12)


def test_period2_weights_far_below_bound_lopsided():
    # One small and one huge degree far below the bound: the forward
    # substitution the solver replaced missed its own residual check here.
    lam = 0.1 * lambda_ell_period2(5, 473235)
    w = harmonic_weights_period2(5, 473235, lam)
    assert all(v > 0 for v in w.g_values.values())
    res = harmonicity_residual(seq(5, 473235), lam, w)
    assert max(abs(r) for r in res) < 1e-10


def test_weights_reject_a_rate_that_is_not_positive():
    for lam in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            harmonic_weights_period2(3, 4, lam)
        with pytest.raises(ValueError):
            harmonic_weights_period3(2, 3, 4, lam)


@settings(max_examples=300, deadline=None)
@given(degrees=st.lists(st.integers(1, 10_000), min_size=2, max_size=3))
def test_harmonic_weights_boundary_property(degrees):
    if len(degrees) == 2:
        solve, error = harmonic_weights_period2, NoRealSolution
        bound = lambda_ell_period2(*degrees)
    else:
        solve, error = harmonic_weights_period3, NoPositiveSolution
        _, bound = lambda_ell_lower_period3(*degrees)
    lam = bound * (1 - 1e-6)
    w = solve(*degrees, lam)
    assert all(v > 0 for v in w.g_values.values())
    res = harmonicity_residual(seq(*degrees), lam, w)
    assert max(abs(r) for r in res) < 1e-10
    with pytest.raises(error):
        solve(*degrees, bound * (1 + 1e-6))


def test_fixed_weights_superharmonic_below_bound():
    # g0 = 1/sqrt(b), g1 = 1/sqrt(a) held fixed while lam drops below the
    # critical rate: residuals must all go nonpositive.
    for a, b in [(3, 4), (2, 9), (5, 5)]:
        fixed = HarmonicWeights({0: 1 / math.sqrt(b), 1: 1 / math.sqrt(a)},
                                0.0, branch="fixed")
        lam0 = lambda_ell_period2(a, b)
        for frac in (0.5, 0.8, 0.99):
            fixed.lam = frac * lam0
            res = harmonicity_residual(seq(a, b), frac * lam0, fixed)
            assert all(r <= 1e-12 for r in res)


def test_perturbed_weights_not_harmonic():
    w = harmonic_weights_period2(3, 4, 0.25)
    bad = HarmonicWeights({k: v + 0.1 for k, v in w.g_values.items()}, 0.25, "bad")
    res = harmonicity_residual(seq(3, 4), 0.25, bad)
    assert max(abs(r) for r in res) > 1e-6


# ---------------------------------------------------------------------------
# Asymptotic lambda_2 and the general-period upper bound


def test_lambda2_asymptotic_1n():
    c, pred = lambda2_asymptotic(seq(1, 1000))
    assert c == 0.5
    assert pred == pytest.approx(0.05876970001191999, abs=1e-9)


def test_lambda2_asymptotic_k_slots():
    c, _ = lambda2_asymptotic(seq(1, 1, 1, 1000))
    assert c == 1.5


def test_lambda2_asymptotic_b_one():
    # product of the small entries equals n, so b = 1 and c = (2-1)/2
    c, _ = lambda2_asymptotic(seq(10, 10, 100))
    assert c == pytest.approx(0.5, abs=1e-12)


def test_lambda2_asymptotic_invalid_shapes():
    with pytest.raises(InvalidShape):
        lambda2_asymptotic(seq(5, 5))            # no unique max
    with pytest.raises(InvalidShape):
        lambda2_asymptotic(seq(100))             # nothing but the dominant entry


def test_lambda2_asymptotic_warns_when_close():
    with pytest.warns(UserWarning):
        lambda2_asymptotic(seq(90, 100))


# ---------------------------------------------------------------------------
# Aggregated report


def test_bounds_report_period2():
    rep = bounds_report(seq(3, 4))
    assert rep.lambda_g == pytest.approx(0.223607, abs=1e-6)
    assert rep.lambda1_upper == pytest.approx(0.405827, abs=1e-6)
    assert rep.lambda_ell_lower == pytest.approx(0.267949, abs=1e-6)
    assert rep.x0 is None


def test_bounds_report_period3():
    rep = bounds_report(seq(2, 3, 4))
    assert rep.x0 == pytest.approx(11.847, abs=1e-3)
    assert rep.lambda_ell_lower == pytest.approx(0.2905, abs=1e-4)


def test_bounds_report_subcritical_note():
    rep = bounds_report(seq(1, 1))
    assert rep.lambda1_upper is None
    assert any("subcritical" in n for n in rep.notes)


def test_bounds_report_json_keys():
    d = bounds_report(seq(3, 4)).to_dict()
    assert set(d) == {"degrees", "lambda_g", "lambda1_upper",
                      "lambda_ell_lower", "x0", "c", "prediction", "notes"}


@settings(max_examples=200, deadline=None)
@given(degrees=st.lists(st.integers(1, 2000), min_size=2, max_size=3))
def test_perron_eigenvalue_matches_charpoly_property(degrees):
    s = seq(*degrees)
    big = perron_eigenvalue(residue_matrix(s))
    ref = charpoly_perron(s)
    assert abs(big - ref) <= 1e-12 * ref


def test_cubic_dominated_by_constant_has_one_real_root():
    # x^3 - 1957 x - 239686129, the (391, 774, 792) characteristic cubic:
    # its discriminant is tiny next to c0^4 but not next to its own terms.
    res = cubic_real_roots(1.0, 0.0, -1957.0, -239686129.0)
    assert res.complex_pair
    assert res.roots == [pytest.approx(622.2256331388918, rel=1e-15)]


@pytest.mark.parametrize("a,b", [(326, 1524), (1891, 946)])
def test_lambda_g_large_period2(a, b):
    ref = 1.0 / math.sqrt((a + 1) * (b + 1))
    assert abs(lambda_g(seq(a, b)) - ref) <= 1e-12 * ref
