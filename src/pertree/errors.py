"""Exception types shared across the package."""


class PertreeError(Exception):
    """Base class for all pertree errors."""


class CapacityExceeded(PertreeError):
    """Materializing another vertex would breach the arena cap."""


class NonConvergence(PertreeError):
    """Power iteration failed to converge within the step budget."""


class Subcritical(PertreeError):
    """The oriented branching bound does not apply (geometric mean <= 1)."""


class NoRealSolution(PertreeError):
    """The period-2 weight quadratic has no real root at this rate."""


class NoPositiveSolution(PertreeError):
    """The period-3 weight system has no positive solution at this rate."""


class InvalidShape(PertreeError):
    """Degree sequence does not fit the single-dominant-degree asymptotics."""


class DegenerateLeadingCoefficient(PertreeError):
    """Cubic solver called with a vanishing leading coefficient."""


class LimitExceeded(PertreeError):
    """A walk length or a batch engine's step count exceeds its configured maximum."""


class SolveFailure(PertreeError):
    """A linear solve produced residuals above tolerance."""


class TooLarge(PertreeError):
    """Graph too large for the exact subset-chain oracle."""


class BracketFailure(PertreeError):
    """Bisection bracket does not straddle the target probability."""
