"""Closed-form critical-value bounds and the algebra behind them.

Covers the growth-rate critical value ``lambda_g`` (Perron eigenvalue of
the residue matrix), the oriented-branching upper bound on ``lambda_1``,
the local-survival lower bound ``lambda_ell`` of every period, the
paper's period-2 and period-3 closed forms (the latter through a cubic in
``x = 1/lambda^2``), harmonic weights, and the asymptotic predictor for
``lambda_2`` on single-dominant-degree trees.

One recurrence carries every spectral quantity.  M(x) is the product of the
period's transfer matrices [[0, 1], [-g(i), x]]; its trace T(x) is a monic
polynomial of degree k with only real roots.  The Perron eigenvalue of the
residue matrix is the largest root of T(x) = 1 + prod g(i), and the tree's
spectral radius rho, the band edge of its periodic Jacobi operator, is the
largest root of T(x) = 2 sqrt(prod g(i)); ``lambda_ell = 1/rho``.  For
period 3, T(x) = x^3 - (a+b+c) x, so y = rho^2 solves the paper's cubic
y (y - s)^2 = 4abc.

Harmonic weights are positive g_0, ..., g_{k-1} with
``g_i (g(i) g_{i+1} + 1/g_i - 1/lambda) = 0``.  Equation i is the Moebius map
``g_i = 1/(1/lambda - g(i) g_{i+1})``; once round the period the maps, the
same product M(1/lambda), fix g_0, so every period needs one quadratic.  Its
smaller root is the branch that continues to the local bound: for period 2
the weights reach g_0 = 1/sqrt(b) and g_1 = 1/sqrt(a) at the rate
1/(sqrt(a) + sqrt(b)).
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
    NumericalError,
    Subcritical,
)

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


def _transfer(seq: PeriodicDegreeSequence, x):
    """Entries A, B, C, D of the product of the maps [[0, 1], [-g(i), x]]."""
    A, B, C, D = 1.0, 0.0, 0.0, 1.0
    for deg in seq.degrees:
        A, B, C, D = -deg * B, A + x * B, -deg * D, C + x * D
    return A, B, C, D


def _trace_root(seq: PeriodicDegreeSequence, level: float) -> float:
    """Largest x with trace M(x) = ``level``, for a level >= 2 sqrt(prod g(i)).

    On the k bands the trace takes every value within 2 sqrt(prod g(i)) of
    zero, so it and its derivatives have only real roots, none above the
    band edge.  Past the edge the trace rises and is convex, and Newton's
    method started at max g(i) + 2, above both the Perron eigenvalue and the
    band edge, falls monotonically to the root.  The derivative is a complex
    step through the recurrence.  A rounded step can land below the root;
    the step back up from there is the last one.
    """
    h = 1e-100
    x = max(seq.degrees) + 2.0
    while True:
        A, _, _, D = _transfer(seq, complex(x, h))
        trace = A + D
        nxt = x - (trace.real - level) * h / trace.imag
        if not nxt < x:
            if not math.isfinite(nxt):
                raise NonConvergence(f"transfer-matrix trace of period {seq.period} overflows")
            return nxt
        x = nxt


def _spectral_radius(seq: PeriodicDegreeSequence) -> float:
    """Spectral radius of the tree: the upper band edge, trace M(x) = 2 sqrt(prod g(i))."""
    return _trace_root(seq, 2.0 * math.sqrt(math.prod(map(float, seq.degrees))))


def charpoly_perron(seq: PeriodicDegreeSequence) -> float:
    """Dominant eigenvalue of the residue matrix from its characteristic polynomial.

    That polynomial is trace M(x) - (1 + prod g(i)).  k=1: d+1.
    k=2: sqrt((a+1)(b+1)).  k=3: largest real root of x^3 - (a+b+c) x - (abc+1).
    """
    return _trace_root(seq, 1.0 + math.prod(map(float, seq.degrees)))


def lambda_g(seq: PeriodicDegreeSequence) -> float:
    """Critical rate for global survival of the branching random walk.

    Reciprocal of the Perron eigenvalue of the residue matrix; cross-checked
    against the root of its characteristic polynomial.
    """
    big = perron_eigenvalue(residue_matrix(seq))
    ref = charpoly_perron(seq)
    if abs(big - ref) > 1e-9 * ref:
        raise NonConvergence(
            f"eigenvalue solve ({big}) disagrees with the trace root ({ref})")
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
    coefficients = (c3, c2, c1, c0)
    # Solve for x / 2^k with 2^k about the largest root, so that no term of
    # the discriminant underflows or overflows; powers of two scale exactly.
    e3 = math.frexp(c3)[1]
    k = max((math.ceil((math.frexp(c)[1] - e3) / j)
             for j, c in enumerate(coefficients) if j and c), default=0)
    c3, c2, c1, c0 = (math.ldexp(c, -e3 - j * k) for j, c in enumerate(coefficients))
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
            roots = [_newton_polish(c3, c2, c1, c0, -shift)] * 3
        else:
            # t^3 + p t + q = (t - s)^2 (t + 2s) with s = -3q/(2p).
            s = -1.5 * q / p
            roots = [_newton_polish(c3, c2, c1, c0, s - shift), s - shift,
                     _newton_polish(c3, c2, c1, c0, -2.0 * s - shift)]
    elif disc > 0.0:
        # Three distinct real roots: Viete's trigonometric form.
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg) / 3.0
        roots = [_newton_polish(c3, c2, c1, c0,
                                m * math.cos(phi - 2.0 * math.pi * j / 3.0) - shift)
                 for j in range(3)]
    else:
        # One real root: real-branch radical.  Next to a double root the
        # radicand cancels and can round below zero.
        half_q = q / 2.0
        rad = math.sqrt(max(0.0, half_q * half_q + (p / 3.0) ** 3))
        t = math.copysign(abs(-half_q + rad) ** (1 / 3), -half_q + rad) \
            + math.copysign(abs(-half_q - rad) ** (1 / 3), -half_q - rad)
        roots = [_newton_polish(c3, c2, c1, c0, t - shift)]
    return CubicRoots(coefficients, cubic_discriminant(*coefficients),
                      sorted(math.ldexp(r, k) for r in roots),
                      complex_pair=len(roots) == 1)


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


def _harmonic_weights(seq: PeriodicDegreeSequence, lam: float,
                      error: type[NumericalError]) -> HarmonicWeights:
    """Harmonic weights of any period at rate ``lam`` <= 1/rho; failures raise ``error``.

    The product [[A, B], [C, D]] of the maps [[0, 1], [-g(i), 1/lam]] fixes
    g_0, the smaller root of ``C g^2 + (D - A) g - B = 0``.  The roots are
    taken without cancellation, and g_i follows from g_{i+1} stepping back.
    Above 1/rho, rho the spectral radius, the quadratic can have real roots
    again, off the branch that continues to the boundary.
    """
    if not lam > 0:
        raise ValueError(f"rate must be positive, got {lam}")
    bound = 1.0 / _spectral_radius(seq)
    if lam > bound * (1.0 + 1e-9):
        raise error(f"rate {lam} exceeds the bound {bound}")
    inv = 1.0 / lam
    A, B, C, D = _transfer(seq, inv)
    lin, trace = D - A, A + D
    # (D - A)^2 + 4BC cancels near the bound; trace^2 - 4 det, with the exact
    # det = prod g(i), is the same number without that loss.  At the bound,
    # itself rounded, it can dip below zero by up to 1e-9 (D - A)^2.
    disc = trace * trace - 4.0 * math.prod(seq.degrees)
    if disc < -1e-9 * max(1.0, lin * lin):
        raise error(f"negative discriminant at rate {lam}")
    q = -0.5 * (lin + math.copysign(math.sqrt(max(disc, 0.0)), lin))
    if q == 0.0:
        raise error(f"weights not positive at rate {lam}")
    roots = sorted((q / C, -B / q))
    k = seq.period
    g = [roots[0]] * k
    for i in range(k - 1, 0, -1):
        g[i] = 1.0 / (inv - seq.degrees[i] * g[(i + 1) % k])
    if min(g) <= 0:
        raise error(f"weights not positive at rate {lam}")
    weights = HarmonicWeights(dict(enumerate(g)), lam, branch="minus",
                              quadratic_roots=tuple(roots))
    res = harmonicity_residual(seq, lam, weights)
    if max(abs(r) for r in res) > WEIGHT_RESIDUAL_ATOL:
        raise error(f"residual check failed at rate {lam}: {res}")
    return weights


def harmonic_weights_period2(a: int, b: int, lam: float) -> HarmonicWeights:
    """Solve the period-2 weight system at rate ``lam`` <= 1/(sqrt(a)+sqrt(b))."""
    return _harmonic_weights(PeriodicDegreeSequence((a, b)), lam, NoRealSolution)


def harmonic_weights_period3(a: int, b: int, c: int, lam: float) -> HarmonicWeights:
    """Solve the period-3 weight system at rate ``lam`` <= 1/sqrt(x0)."""
    return _harmonic_weights(PeriodicDegreeSequence((a, b, c)), lam,
                             NoPositiveSolution)


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
    rho = _spectral_radius(seq)
    # x0 = rho^2 is the largest root of the paper's period-3 cubic.
    report = BoundsReport(seq, lambda_g=lambda_g(seq), lambda_ell_lower=1.0 / rho,
                          x0=rho * rho if seq.period == 3 else None)
    try:
        report.lambda1_upper = lambda1_upper(seq)
    except Subcritical:
        report.notes.append("lambda1 upper bound unavailable: "
                            "oriented branching is subcritical")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c, pred = lambda2_asymptotic(seq)
        report.lambda2_asymptotic_c = c
        report.lambda2_prediction = pred
    except InvalidShape:
        pass
    return report
