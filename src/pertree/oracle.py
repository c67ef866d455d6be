"""Brute-force ground truth at desk scale.

Exact expected absorption times for the star chain (banded linear solve),
exact contact-process statistics on tiny explicit graphs (full subset
chain), and exhaustive closed-walk enumeration on a materialized ball.
These are the independent side of every simulator/DP cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from .degrees import PeriodicDegreeSequence
from .errors import LimitExceeded, SolveFailure, TooLarge
from .tree import TreeArena

STAR_MAX_LEAVES = 2000
GRAPH_MAX_STATES = 16384
SOLVE_RESIDUAL_TOL = 1e-8


@dataclass
class AbsorptionSolve:
    n: int
    lam: float
    expected_time: dict[tuple[int, int], float]
    solve_residual: float


def star_mean_absorption(n: int, lam: float) -> AbsorptionSolve:
    """Expected time to reach (0,0) from every star state, solved exactly.

    States (j, center) are ordered by 2j + center, which makes the
    first-step system pentadiagonal; a banded solve keeps it exact and fast
    up to n = 2000.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and >= 0")
    if n > STAR_MAX_LEAVES:
        raise TooLarge(f"star size {n} exceeds the cap {STAR_MAX_LEAVES}")
    size = 2 * (n + 1)

    def idx(j, m):
        return 2 * j + m

    diag = np.zeros(size)
    band = np.zeros((5, size))  # offsets +2, +1, 0, -1, -2
    rhs = np.ones(size)
    # Absorbing state (0,0): E = 0.
    band[2, idx(0, 0)] = 1.0
    rhs[idx(0, 0)] = 0.0
    for j in range(n + 1):
        for m in (0, 1):
            if (j, m) == (0, 0):
                continue
            i = idx(j, m)
            rates = []
            if m == 1 and j < n:
                rates.append((lam * (n - j), idx(j + 1, m)))
            if j > 0:
                rates.append((float(j), idx(j - 1, m)))
            if m == 1:
                rates.append((1.0, idx(j, 0)))
            if m == 0 and j > 0:
                rates.append((lam * j, idx(j, 1)))
            total = sum(r for r, _ in rates)
            band[2, i] = total
            rhs[i] = 1.0
            for r, target in rates:
                band[2 + (i - target), target] -= r
    solution = solve_banded((2, 2), band, rhs)

    # Residual against the same banded operator.
    residual = 0.0
    for i in range(size):
        acc = 0.0
        for off in (-2, -1, 0, 1, 2):
            col = i + off
            if 0 <= col < size:
                acc += band[2 - off, col] * solution[col]
        residual = max(residual, abs(acc - rhs[i]))
    scale = max(1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(band))))
    if residual > SOLVE_RESIDUAL_TOL * scale:
        raise SolveFailure(f"banded solve residual {residual} too large")

    expected = {(j, m): float(solution[idx(j, m)])
                for j in range(n + 1) for m in (0, 1)}
    return AbsorptionSolve(n, lam, expected, residual)


def exact_contact_small(neighbors: dict[int, list[int]], lam: float,
                        root: int) -> tuple[float, float]:
    """Exact (mean extinction time, mean root reinfections) from {root}.

    Builds the full continuous-time chain on vertex subsets and solves two
    first-step systems: absorption time, and the expected number of
    transitions that reinfect the root.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and >= 0")
    verts = sorted(neighbors)
    vmap = {v: i for i, v in enumerate(verts)}
    nv = len(verts)
    if 1 << nv > GRAPH_MAX_STATES:
        raise TooLarge(f"2^{nv} states exceed the cap {GRAPH_MAX_STATES}")
    nbr_idx = [[vmap[w] for w in neighbors[v]] for v in verts]
    r = vmap[root]

    nstates = (1 << nv) - 1  # transient: nonempty subsets, shifted by 1
    gen = lil_matrix((nstates, nstates))
    time_rhs = np.ones(nstates)
    visit_rhs = np.zeros(nstates)
    for s in range(1, 1 << nv):
        total = 0.0
        for v in range(nv):
            if s >> v & 1:
                rate = 1.0
                target = s & ~(1 << v)
                total += rate
                if target:
                    gen[s - 1, target - 1] -= rate
            else:
                k = sum(1 for w in nbr_idx[v] if s >> w & 1)
                if k:
                    rate = lam * k
                    total += rate
                    gen[s - 1, (s | 1 << v) - 1] -= rate
                    if v == r:
                        visit_rhs[s - 1] += rate
        gen[s - 1, s - 1] = total
    gen = gen.tocsr()
    mean_time = spsolve(gen, time_rhs)
    mean_visits = spsolve(gen, visit_rhs)
    res = max(np.max(np.abs(gen @ mean_time - time_rhs)),
              np.max(np.abs(gen @ mean_visits - visit_rhs)))
    scale = max(1.0, float(np.max(np.abs(mean_time))))
    if res > SOLVE_RESIDUAL_TOL * scale:
        raise SolveFailure(f"subset-chain solve residual {res} too large")
    start = (1 << r) - 1
    return float(mean_time[start]), float(mean_visits[start])


def enumerate_closed_walks(seq: PeriodicDegreeSequence, root_residue: int,
                           two_n: int, max_two_n: int = 8) -> int:
    """Count closed walks by explicit recursion over the materialized ball.

    Independent of the first-return DP; small bounds only.
    """
    if two_n < 0 or two_n % 2:
        raise ValueError("walk length must be even and nonnegative")
    if two_n > max_two_n:
        raise LimitExceeded(f"walk length {two_n} exceeds the cap {max_two_n}")
    arena = TreeArena(seq, root_residue, max_vertices=10_000_000)
    return enumerate_closed_walks_at(arena, arena.root, two_n)


def enumerate_closed_walks_at(arena: TreeArena, vid: int, two_n: int) -> int:
    """Closed-walk count anchored at an arbitrary materialized vertex."""
    return _count_walks(arena, vid, vid, two_n)


def _count_walks(arena: TreeArena, v: int, target: int, remaining: int) -> int:
    if remaining == 0:
        return 1 if v == target else 0
    # Prune: cannot make it back in the remaining steps.
    # (distance in a tree >= |height difference|; cheap, safe bound)
    if abs(arena.heights[v] - arena.heights[target]) > remaining:
        return 0
    total = 0
    total += _count_walks(arena, arena.materialize_parent(v), target, remaining - 1)
    for child in arena.materialize_children(v):
        total += _count_walks(arena, child, target, remaining - 1)
    return total
