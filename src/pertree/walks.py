"""Exact integer counting of walks on periodic trees.

Closed-walk counts are computed by a first-return decomposition over
height residues instead of materializing the ball: subtrees hanging at
equal height are isomorphic, so a walk's options depend only on the
residue of its current height and on which side of its start it sits.
All counts are exact Python integers; floats appear only in the
presentation roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .degrees import PeriodicDegreeSequence
from .errors import LimitExceeded

MAX_TWO_N = 40


def _walk_tables(seq: PeriodicDegreeSequence, root_residue: int, n_max: int):
    """First-return DP tables up to walk half-length n_max.

    up[r][m]:    closed walks of length 2m staying inside the start's subtree,
                 start at residue r.
    side[r][m]:  closed walks of length 2m at residue r avoiding one marked
                 child subtree (the branch leading back toward the anchor).
    closed[m]:   unrestricted closed walks of length 2m at the anchor.
    """
    k = seq.period
    g = seq.degrees
    up = [[1] + [0] * n_max for _ in range(k)]
    side = [[1] + [0] * n_max for _ in range(k)]
    for m in range(1, n_max + 1):
        for r in range(k):
            tot_u = 0
            tot_s = 0
            for j in range(1, m + 1):
                first_up = g[r] * up[(r + 1) % k][j - 1]
                tot_u += first_up * up[r][m - j]
                first_side = (g[r] - 1) * up[(r + 1) % k][j - 1] \
                    + side[(r - 1) % k][j - 1]
                tot_s += first_side * side[r][m - j]
            up[r][m] = tot_u
            side[r][m] = tot_s
    r0 = root_residue % k
    closed = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        tot = 0
        for j in range(1, m + 1):
            first = g[r0] * up[(r0 + 1) % k][j - 1] + side[(r0 - 1) % k][j - 1]
            tot += first * closed[m - j]
        closed[m] = tot
    return closed


def closed_walk_count(seq: PeriodicDegreeSequence, root_residue: int,
                      two_n: int) -> int:
    """Exact number of walks of length ``two_n`` from a fixed vertex back to itself."""
    if two_n < 0 or two_n % 2:
        raise ValueError("walk length must be even and nonnegative")
    if two_n > MAX_TWO_N:
        raise LimitExceeded(f"walk length {two_n} exceeds the cap {MAX_TWO_N}")
    return _walk_tables(seq, root_residue, two_n // 2)[two_n // 2]


def level_return_count(a: int, b: int, n: int) -> tuple[list[int], int]:
    """Counts of length-2n paths from the root ending at any height-0 vertex.

    Grouped by the number m of up-up (equivalently down-down) step pairs:
    per_m[m] = n!/(m! (n-2m)! m!) (a+b)^(n-2m) (ab)^m.
    """
    per_m = []
    for m in range(n // 2 + 1):
        per_m.append(math.factorial(n)
                     // (math.factorial(m) ** 2 * math.factorial(n - 2 * m))
                     * (a + b) ** (n - 2 * m) * (a * b) ** m)
    return per_m, sum(per_m)


@dataclass
class WalkCountTable:
    """Closed-walk counts for one anchor and their 2n-th roots."""

    degrees: PeriodicDegreeSequence
    root_residue: int
    counts: list[int]       # exact counts for 2n = 2, 4, ..., 2*n_max
    roots: list[float]      # counts[n]^(1/2n)

    def running_max(self) -> list[float]:
        out = []
        best = 0.0
        for r in self.roots:
            best = max(best, r)
            out.append(best)
        return out


def m0_estimates(seq: PeriodicDegreeSequence, n_max: int,
                 root_residue: int = 0) -> WalkCountTable:
    """Closed-walk counts for n = 1..n_max with their growth-rate roots.

    The running maximum of the roots climbs toward the walk growth constant
    (sqrt(a) + sqrt(b) in the period-2 case) from below.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if 2 * n_max > MAX_TWO_N:
        raise LimitExceeded(f"walk length {2 * n_max} exceeds the cap {MAX_TWO_N}")
    closed = _walk_tables(seq, root_residue, n_max)
    counts = closed[1:]
    roots = [math.exp(math.log(c) / (2 * n)) for n, c in enumerate(counts, start=1)]
    return WalkCountTable(seq, root_residue % seq.period, counts, roots)
