"""Exception types shared across the package.

Every error belongs to exactly one of two families, and its family alone
fixes the CLI exit code: ``CapacityError`` exits 3, ``NumericalError`` 2.
"""


class PertreeError(Exception):
    """Base class for all pertree errors."""


class CapacityError(PertreeError):
    """A size cap or step budget was reached: the CLI exits 3."""


class NumericalError(PertreeError):
    """A numerical method failed or does not apply: the CLI exits 2."""


class CapacityExceeded(CapacityError):
    """Materializing another vertex would breach the arena cap."""


class NonConvergence(NumericalError):
    """The Perron eigenvalue disagrees with its closed form, or the
    transfer-matrix trace overflows a double."""


class Subcritical(NumericalError):
    """The oriented branching bound does not apply (geometric mean <= 1)."""


class NoRealSolution(NumericalError):
    """The period-2 weight quadratic has no real root at this rate."""


class NoPositiveSolution(NumericalError):
    """The period-3 weight system has no positive solution at this rate."""


class InvalidShape(NumericalError):
    """Degree sequence does not fit the single-dominant-degree asymptotics."""


class DegenerateLeadingCoefficient(NumericalError):
    """Cubic solver called with a vanishing leading coefficient."""


class LimitExceeded(CapacityError):
    """A walk length or a batch engine's step count exceeds its configured maximum."""


class SolveFailure(NumericalError):
    """A linear solve produced residuals above tolerance."""


class TooLarge(CapacityError):
    """Graph too large for the exact subset-chain oracle, or a star too large
    for its oracle or its batch tables (``STAR_MAX_LEAVES``,
    ``STAR_TABLE_MAX_LEAVES``)."""


class BracketFailure(NumericalError):
    """Bisection bracket does not straddle the target probability."""
