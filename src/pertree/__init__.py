"""Critical values of the contact process and branching random walk on periodic trees.

Closed-form bounds, exact walk counts, exact small-instance oracles, and
an event-driven stochastic simulator, all built around a shared periodic
degree sequence type.
"""

from .bounds import (
    BoundsReport,
    CubicRoots,
    HarmonicWeights,
    bounds_report,
    cubic_real_roots,
    harmonic_weights_period2,
    harmonic_weights_period3,
    harmonicity_residual,
    lambda1_upper,
    lambda2_asymptotic,
    lambda_ell_lower_period3,
    lambda_ell_period2,
    lambda_g,
)
from .degrees import PeriodicDegreeSequence, degree_at
from .oracle import (
    AbsorptionSolve,
    brw_survival,
    enumerate_closed_walks,
    exact_contact_small,
    star_mean_absorption,
)
from .sim import (
    Lambda2Protocol,
    SimConfig,
    SimOutcome,
    StarState,
    SurvivalEstimate,
    estimate_lambda2,
    run_brw,
    run_contact,
    star_runs,
    survival_curve,
)
from .tree import TreeArena
from .walks import WalkCountTable, closed_walk_count, level_return_count, m0_estimates

__version__ = "0.1.0"

__all__ = [
    "AbsorptionSolve",
    "BoundsReport",
    "CubicRoots",
    "HarmonicWeights",
    "Lambda2Protocol",
    "PeriodicDegreeSequence",
    "SimConfig",
    "SimOutcome",
    "StarState",
    "SurvivalEstimate",
    "TreeArena",
    "WalkCountTable",
    "bounds_report",
    "brw_survival",
    "closed_walk_count",
    "cubic_real_roots",
    "degree_at",
    "enumerate_closed_walks",
    "estimate_lambda2",
    "exact_contact_small",
    "harmonic_weights_period2",
    "harmonic_weights_period3",
    "harmonicity_residual",
    "lambda1_upper",
    "lambda2_asymptotic",
    "lambda_ell_lower_period3",
    "lambda_ell_period2",
    "lambda_g",
    "level_return_count",
    "m0_estimates",
    "run_brw",
    "run_contact",
    "star_mean_absorption",
    "star_runs",
    "survival_curve",
]
