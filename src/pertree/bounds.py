"""Closed-form critical-value bounds and the algebra behind them.

Covers the growth-rate critical value ``lambda_g`` (Perron eigenvalue of
the residue matrix), the oriented-branching upper bound on ``lambda_1``,
local-survival lower bounds for periods 2 and 3 (the latter through a
cubic in ``x = 1/lambda^2``), harmonic weight constructions, and the
asymptotic predictor for ``lambda_2`` on single-dominant-degree trees.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .degrees import PeriodicDegreeSequence
from .errors import (
    DegenerateLeadingCoefficient,
    InvalidShape,
    NoPositiveSolution,
    NonConvergence,
    NoRealSolution,
    Subcritical,
)

ROOT_RESIDUAL_RTOL = 1e-9
WEIGHT_RESIDUAL_ATOL = 1e-10
DOMINANCE_EPSILON = 0.05


# ---------------------------------------------------------------------------
# Growth rate / global survival


def residue_matrix(seq: PeriodicDegreeSequence) -> np.ndarray:
    """k x k matrix counting height-residue moves: up with weight g(i), down with 1.

    Entries landing in the same column (k <= 2) are summed.
    """
    k = seq.period
    a = np.zeros((k, k))
    for i, g in enumerate(seq.degrees):
        a[i][(i + 1) % k] += g
        a[i][(i - 1) % k] += 1
    return a


def perron_eigenvalue(matrix: np.ndarray) -> float:
    """Dominant eigenvalue of a nonnegative irreducible matrix.

    By Perron-Frobenius the dominant eigenvalue is real and no other
    eigenvalue has a larger real part, so it is the largest real part.
    """
    return float(np.linalg.eigvals(matrix).real.max())


def charpoly_perron(seq: PeriodicDegreeSequence) -> float:
    """Closed-form dominant eigenvalue of the residue matrix, k <= 3 only.

    k=1: d+1.  k=2: sqrt((a+1)(b+1)).  k=3: largest real root of
    x^3 - (a+b+c) x - (abc+1).
    """
    degs = seq.degrees
    if seq.period == 1:
        return float(degs[0] + 1)
    if seq.period == 2:
        return math.sqrt((degs[0] + 1) * (degs[1] + 1))
    if seq.period == 3:
        a, b, c = degs
        roots = cubic_real_roots(1.0, 0.0, -(a + b + c), -(a * b * c + 1))
        return roots.roots[-1]
    raise ValueError("closed form only available for period <= 3")


def lambda_g(seq: PeriodicDegreeSequence) -> float:
    """Critical rate for global survival of the branching random walk.

    Reciprocal of the Perron eigenvalue of the residue matrix; cross-checked
    against the characteristic-polynomial closed form when the period is <= 3.
    """
    big = perron_eigenvalue(residue_matrix(seq))
    if seq.period <= 3:
        ref = charpoly_perron(seq)
        if abs(big - ref) > 1e-9 * ref:
            raise NonConvergence(
                f"eigenvalue solve ({big}) disagrees with closed form ({ref})")
    return 1.0 / big


def lambda1_upper(seq: PeriodicDegreeSequence) -> float:
    """Upper bound on the contact-process global critical value.

    1/(G-1) with G the geometric mean of the children counts; the oriented
    branching argument needs G > 1.
    """
    logg = sum(math.log(d) for d in seq.degrees) / seq.period
    if logg <= 0:
        raise Subcritical("geometric mean of children counts is <= 1")
    return 1.0 / (math.exp(logg) - 1.0)


def lambda_ell_period2(a: int, b: int) -> float:
    """Local-survival critical value of the branching random walk, period 2."""
    return 1.0 / (math.sqrt(a) + math.sqrt(b))


# ---------------------------------------------------------------------------
# Cubic machinery


@dataclass
class CubicRoots:
    coefficients: tuple[float, float, float, float]
    discriminant: float
    roots: list[float]       # real roots, ascending
    complex_pair: bool       # True when two roots are complex


def cubic_discriminant(c3: float, c2: float, c1: float, c0: float) -> float:
    """Discriminant of c3 x^3 + c2 x^2 + c1 x + c0; positive iff 3 real roots."""
    return (18.0 * c3 * c2 * c1 * c0 - 4.0 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
            - 4.0 * c3 * c1 ** 3 - 27.0 * c3 ** 2 * c0 ** 2)


def _newton_polish(c3, c2, c1, c0, x, steps=40):
    for _ in range(steps):
        f = ((c3 * x + c2) * x + c1) * x + c0
        df = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if df == 0.0:
            break
        step = f / df
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


def cubic_real_roots(c3: float, c2: float, c1: float, c0: float) -> CubicRoots:
    """Real roots of a cubic with the discriminant deciding the branch.

    Three real roots are found trigonometrically (the all-real case would
    route the radical formula through complex cube roots); a lone real root
    uses the real-branch radical.  Every root is Newton-polished.
    """
    if c3 == 0.0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    disc = cubic_discriminant(c3, c2, c1, c0)
    # Depressed form t^3 + p t + q with x = t - c2/(3 c3).
    shift = c2 / (3.0 * c3)
    p = c1 / c3 - shift * shift * 3.0
    q = 2.0 * shift ** 3 - shift * c1 / c3 + c0 / c3
    # A multiple root makes the discriminant's terms cancel, so the test is
    # relative to the largest term: a cubic dominated by c0 has a discriminant
    # far below max|c_i|^4 and yet only one real root.
    disc_tol = 1e-12 * max(abs(18.0 * c3 * c2 * c1 * c0), abs(4.0 * c2 ** 3 * c0),
                           c2 ** 2 * c1 ** 2, abs(4.0 * c3 * c1 ** 3),
                           27.0 * c3 ** 2 * c0 ** 2)

    if abs(disc) <= disc_tol:
        if p == 0.0 or abs(p) ** 3 <= 27.0 * q * q * 1e-12:
            # Triple root at the depressed origin.
            roots = sorted([_newton_polish(c3, c2, c1, c0, -shift)] * 3)
        else:
            # t^3 + p t + q = (t - s)^2 (t + 2s) with s = -3q/(2p).
            s = -1.5 * q / p
            roots = sorted([
                _newton_polish(c3, c2, c1, c0, s - shift),
                s - shift,
                _newton_polish(c3, c2, c1, c0, -2.0 * s - shift),
            ])
        return CubicRoots((c3, c2, c1, c0), disc, roots, complex_pair=False)

    if disc > 0.0:
        # Three distinct real roots: Viete's trigonometric form.
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg) / 3.0
        ts = [m * math.cos(phi - 2.0 * math.pi * j / 3.0) for j in range(3)]
        roots = sorted(_newton_polish(c3, c2, c1, c0, t - shift) for t in ts)
        return CubicRoots((c3, c2, c1, c0), disc, roots, complex_pair=False)

    # One real root: real-branch radical.
    half_q = q / 2.0
    rad = math.sqrt(half_q * half_q + (p / 3.0) ** 3)
    t = math.copysign(abs(-half_q + rad) ** (1 / 3), -half_q + rad) \
        + math.copysign(abs(-half_q - rad) ** (1 / 3), -half_q - rad)
    root = _newton_polish(c3, c2, c1, c0, t - shift)
    return CubicRoots((c3, c2, c1, c0), disc, [root], complex_pair=True)


def local_bound_cubic_coeffs(a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """Integer coefficients of the period-3 bound cubic in x = 1/lambda^2."""
    s = a + b + c
    return (1, -2 * s, s * s, -4 * a * b * c)


def lambda_ell_lower_period3(a: int, b: int, c: int) -> tuple[float, float]:
    """(x0, 1/sqrt(x0)): largest root of the bound cubic and the rate bound."""
    c3, c2, c1, c0 = local_bound_cubic_coeffs(a, b, c)
    roots = cubic_real_roots(float(c3), float(c2), float(c1), float(c0))
    x0 = roots.roots[-1]
    s = a + b + c
    assert x0 >= s - 1e-9 * s, "largest root must dominate a+b+c"
    # Exact integer identity: the cubic collapses to -4abc at x = a+b+c.
    assert ((c3 * s + c2) * s + c1) * s + c0 == -4 * a * b * c
    return x0, 1.0 / math.sqrt(x0)


# ---------------------------------------------------------------------------
# Harmonic weights


@dataclass
class HarmonicWeights:
    """Per-residue multipliers making the product weight harmonic in time."""

    g_values: dict[int, float]
    lam: float
    branch: str
    quadratic_roots: tuple[float, float] | None = None


def harmonic_weights_period2(a: int, b: int, lam: float) -> HarmonicWeights:
    """Solve the period-2 weight system at rate ``lam``.

    The quadratic ``b g0^2 - ((b-a) lam + 1/lam) g0 + 1 = 0`` is solved for
    the weight at the degree-``a`` residue; the other weight follows from
    ``a g1 = b g0 + lam (a - b)``.  The smaller quadratic root is the branch
    that continues the boundary values g0 = 1/sqrt(b), g1 = 1/sqrt(a) at the
    critical rate 1/(sqrt(a)+sqrt(b)).
    """
    if lam <= 0:
        raise ValueError("rate must be positive")
    lam0 = lambda_ell_period2(a, b)
    if lam > lam0 * (1.0 + 1e-9):
        raise NoRealSolution(f"rate {lam} exceeds the bound {lam0}")
    lin = (b - a) * lam + 1.0 / lam
    disc = lin * lin - 4.0 * b
    if disc < 0.0:
        if disc < -1e-9 * max(1.0, lin * lin):
            raise NoRealSolution(f"negative discriminant at rate {lam}")
        disc = 0.0
    sq = math.sqrt(disc)
    g0_lo, g0_hi = (lin - sq) / (2.0 * b), (lin + sq) / (2.0 * b)
    g0 = g0_lo
    g1 = (b * g0 + lam * (a - b)) / a
    if g0 <= 0 or g1 <= 0:
        raise NoRealSolution(f"weights not positive at rate {lam}")
    weights = HarmonicWeights({0: g0, 1: g1}, lam, branch="minus",
                              quadratic_roots=(g0_lo, g0_hi))
    res = harmonicity_residual(PeriodicDegreeSequence((a, b)), lam, weights)
    if max(abs(r) for r in res) > WEIGHT_RESIDUAL_ATOL:
        raise NoRealSolution(f"residual check failed at rate {lam}: {res}")
    return weights


def harmonic_weights_period3(a: int, b: int, c: int, lam: float) -> HarmonicWeights:
    """Solve the period-3 weight system at rate ``lam``.

    Eliminating two unknowns leaves ``alpha g0^2 + beta g0 + gamma = 0`` with
    alpha = -ac + c/lam^2, beta = (a+b-c)/lam - 1/lam^3, gamma = -b + 1/lam^2.
    The smaller root continues toward the boundary rate 1/sqrt(x0); the other
    weights are recovered by back-substitution.
    """
    if lam <= 0:
        raise ValueError("rate must be positive")
    _, bound = lambda_ell_lower_period3(a, b, c)
    if lam > bound * (1.0 + 1e-9):
        raise NoPositiveSolution(f"rate {lam} exceeds the bound {bound}")
    inv = 1.0 / lam
    alpha = -a * c + c * inv * inv
    beta = (a + b - c) * inv - inv ** 3
    gamma = -b + inv * inv
    disc = beta * beta - 4.0 * alpha * gamma
    if disc < 0.0:
        if disc < -1e-9 * max(1.0, beta * beta):
            raise NoPositiveSolution(f"negative discriminant at rate {lam}")
        disc = 0.0
    sq = math.sqrt(disc)
    roots = sorted(((-beta - sq) / (2.0 * alpha), (-beta + sq) / (2.0 * alpha)))
    g0 = roots[0]
    g2 = -1.0 / (c * g0 - inv)
    g1 = -1.0 / (b * g2 - inv)
    if g0 <= 0 or g1 <= 0 or g2 <= 0:
        raise NoPositiveSolution(f"weights not positive at rate {lam}")
    weights = HarmonicWeights({0: g0, 1: g1, 2: g2}, lam, branch="minus",
                              quadratic_roots=(roots[0], roots[1]))
    res = harmonicity_residual(PeriodicDegreeSequence((a, b, c)), lam, weights)
    if max(abs(r) for r in res) > WEIGHT_RESIDUAL_ATOL:
        raise NoPositiveSolution(f"residual check failed at rate {lam}: {res}")
    return weights


def harmonicity_residual(seq: PeriodicDegreeSequence, lam: float,
                         weights: HarmonicWeights) -> list[float]:
    """Per-residue defect of the weight equations, scaled by the weight itself.

    Zero residuals certify a harmonic weight function; strictly negative ones
    a superharmonic (decreasing-weight) function, which still yields a bound.
    """
    k = seq.period
    out = []
    for i in range(k):
        g_here = weights.g_values[i]
        g_next = weights.g_values[(i + 1) % k]
        out.append(g_here * (seq.degrees[i] * g_next + 1.0 / g_here - 1.0 / lam))
    return out


# ---------------------------------------------------------------------------
# Dominant-degree asymptotics


def lambda2_asymptotic(seq: PeriodicDegreeSequence,
                       n_override: int | None = None) -> tuple[float, float]:
    """(c, sqrt(c log n / n)) for trees with a single dominant degree n.

    The non-dominant counts a_i enter through b = log(prod a_i)/log(n) and
    k = number of non-dominant entries: c = (k - b)/2.  Entries approaching
    n (max a_i > n^(1 - DOMINANCE_EPSILON)) only produce a warning; the
    formula still evaluates.
    """
    degs = list(seq.degrees)
    n = max(degs) if n_override is None else n_override
    if degs.count(n) != 1:
        raise InvalidShape("dominant degree must be unique")
    rest = [d for d in degs if d != n]
    if not rest:
        raise InvalidShape("need at least one non-dominant entry")
    if n <= 1:
        raise InvalidShape("dominant degree must exceed 1")
    if max(rest) > n ** (1.0 - DOMINANCE_EPSILON):
        warnings.warn("non-dominant degrees are close to the dominant one; "
                      "the asymptotic prediction may be poor", stacklevel=2)
    k = len(rest)
    b = sum(math.log(d) for d in rest) / math.log(n)
    c = (k - b) / 2.0
    if c <= 0:
        raise InvalidShape(f"nonpositive constant c={c}")
    return c, math.sqrt(c * math.log(n) / n)


def pemantle_upper(j1: int, j2: int, n: int, c4: float) -> float:
    """General-period upper bound on lambda_2 with an explicit constant c4.

    j1, j2 are the two path lengths in the repeating block;
    r = max(2, ceil((j1+j2)/ln n)).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    j = j1 + j2
    r = max(2, math.ceil(j / math.log(n)))
    return c4 * math.sqrt(r * math.log(r) * math.log(n) / n)


# ---------------------------------------------------------------------------
# Aggregated report


@dataclass
class BoundsReport:
    degrees: PeriodicDegreeSequence
    lambda_g: float
    lambda1_upper: float | None = None
    lambda_ell_lower: float | None = None
    x0: float | None = None
    lambda2_asymptotic_c: float | None = None
    lambda2_prediction: float | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "degrees": str(self.degrees),
            "lambda_g": self.lambda_g,
            "lambda1_upper": self.lambda1_upper,
            "lambda_ell_lower": self.lambda_ell_lower,
            "x0": self.x0,
            "c": self.lambda2_asymptotic_c,
            "prediction": self.lambda2_prediction,
            "notes": self.notes,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def bounds_report(seq: PeriodicDegreeSequence) -> BoundsReport:
    """All applicable closed-form bounds for one degree sequence."""
    report = BoundsReport(seq, lambda_g=lambda_g(seq))
    try:
        report.lambda1_upper = lambda1_upper(seq)
    except Subcritical:
        report.notes.append("lambda1 upper bound unavailable: "
                            "oriented branching is subcritical")
    k = seq.period
    if k == 1:
        d = seq.degrees[0]
        report.lambda_ell_lower = lambda_ell_period2(d, d)
    elif k == 2:
        report.lambda_ell_lower = lambda_ell_period2(*seq.degrees)
    elif k == 3:
        report.x0, report.lambda_ell_lower = lambda_ell_lower_period3(*seq.degrees)
    else:
        report.notes.append("no closed-form local bound for period > 3")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c, pred = lambda2_asymptotic(seq)
        report.lambda2_asymptotic_c = c
        report.lambda2_prediction = pred
    except InvalidShape:
        pass
    return report
