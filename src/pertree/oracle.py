"""Brute-force ground truth at desk scale.

Exact expected absorption times for the star chain (subtraction-free
elimination), exact contact-process statistics on tiny explicit graphs
(the full subset chain, solved level by level), branching-random-walk
survival on the periodic tree (a k-dimensional backward ODE), and
exhaustive closed-walk enumeration over vertex addresses, which shares no
code with :mod:`pertree.tree`.  These are the independent side of every
simulator/DP cross-check.

Only ``brw_survival`` uses scipy, and it imports it in its own body, so
importing this module (and every command) never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degrees import PeriodicDegreeSequence
from .errors import LimitExceeded, SolveFailure, TooLarge

STAR_MAX_LEAVES = 2000
GRAPH_MAX_STATES = 16384
SOLVE_RESIDUAL_TOL = 1e-8
ENUM_MAX_TWO_N = 8
BRW_ODE_RTOL = 1e-10


@dataclass
class AbsorptionSolve:
    n: int
    lam: float
    expected_time: dict[tuple[int, int], float]
    solve_residual: float


def star_mean_absorption(n: int, lam: float) -> AbsorptionSolve:
    """Expected time to reach (0,0) from every star state, solved exactly.

    State (j, center) has code i = 2j + center, so every transition moves the
    code by +-1 or +-2.  A subtraction-free (GTH) elimination folds codes from
    the top down into the two below them, dropping the self-loops this makes,
    so every pivot is a sum of rates: each time comes out to about 1e-14
    relative at every size up to n = 2000 (Grassmann, Taksar & Heyman 1985).
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and >= 0")
    if n < 0:
        raise ValueError("star size must be >= 0")
    if n > STAR_MAX_LEAVES:
        raise TooLarge(f"star size {n} exceeds the cap {STAR_MAX_LEAVES}")
    size = 2 * (n + 1)
    j, m = np.divmod(np.arange(size), 2)
    up1, up2 = lam * j * (1 - m), lam * (n - j) * m   # code +1, +2
    down1, down2 = m.astype(float), j.astype(float)    # code -1, -2
    total = up1 + up2 + down1 + down2
    u1, u2, d1, d2 = up1.tolist(), up2.tolist(), down1.tolist(), down2.tolist()
    rhs, pivot = [1.0] * size, [0.0] * size
    for i in range(size - 1, 0, -1):   # fold code i into i-1 and i-2, dropping self-loops
        pivot[i] = d1[i] + d2[i]
        f = u1[i - 1] / pivot[i]
        rhs[i - 1] += f * rhs[i]
        d1[i - 1] += f * d2[i]
        if i > 1:
            g = u2[i - 2] / pivot[i]
            rhs[i - 2] += g * rhs[i]
            u1[i - 2] += g * d1[i]
    x = [0.0] * size
    for i in range(1, size):
        two_down = d2[i] * x[i - 2] if i > 1 else 0.0
        x[i] = (rhs[i] + d1[i] * x[i - 1] + two_down) / pivot[i]

    x = np.array(x)
    if not np.isfinite(x).all():
        raise SolveFailure(f"star times overflow a float at n={n}, lambda={lam}")
    pad = np.concatenate(([0.0, 0.0], x, [0.0, 0.0]))
    out_flow = (up1 * pad[3:-1] + up2 * pad[4:]
                + down1 * pad[1:-3] + down2 * pad[:-4])[1:]
    held = total[1:] * x[1:]
    # Oettli-Prager componentwise backward error of the first-step equations
    residual = float(np.max(np.abs(held - out_flow - 1.0) / (held + out_flow + 1.0)))
    if residual > SOLVE_RESIDUAL_TOL:
        raise SolveFailure(f"star solve backward error {residual} too large")
    if not (held >= 1.0 - SOLVE_RESIDUAL_TOL).all():
        raise SolveFailure("star solve gave a time below the mean holding time")
    expected = {divmod(i, 2): t for i, t in enumerate(x.tolist())}
    return AbsorptionSolve(n, lam, expected, residual)


def check_graph(neighbors: dict[int, list[int]], lam: float,
                root: int) -> tuple[np.ndarray, int]:
    """(adjacency matrix, root index) of an explicit graph, vertices sorted.

    The graph is checked with the rate for the subset chains.  The rate must
    be finite and >= 0.  The graph must be simple and undirected: every
    neighbor is a vertex, and every edge is listed once from each end, with
    no self-loops.  The root must be a vertex, and the 2^|V| subsets must fit
    ``GRAPH_MAX_STATES``.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and >= 0")
    if root not in neighbors:
        raise ValueError(f"root {root} is not a vertex of the graph")
    if 1 << len(neighbors) > GRAPH_MAX_STATES:
        raise TooLarge(f"2^{len(neighbors)} states exceed the cap {GRAPH_MAX_STATES}")
    for v, nbrs in neighbors.items():
        for i, w in enumerate(nbrs):
            if w not in neighbors:
                raise ValueError(f"neighbor {w} of vertex {v} is not a vertex of the graph")
            if w == v:
                raise ValueError(f"self-loop at vertex {v}")
            if w in nbrs[:i]:
                raise ValueError(f"edge {v}-{w} is listed twice at {v}")
            if v not in neighbors[w]:
                raise ValueError(f"edge {v}-{w} is not listed at {w}")
    index = {v: i for i, v in enumerate(sorted(neighbors))}
    adj = np.zeros((len(index), len(index)))
    for v, nbrs in neighbors.items():
        adj[index[v], [index[w] for w in nbrs]] = 1.0
    return adj, index[root]


def exact_contact_small(neighbors: dict[int, list[int]], lam: float,
                        root: int) -> tuple[float, float]:
    """Exact (mean extinction time, mean root reinfections) from {root}.

    Solves the first-step equations of the full chain on vertex subsets for
    two right-hand sides: absorption time, and the expected number of
    transitions that reinfect the root.  A subset of l infected vertices is
    at level l.  A recovery moves one level down at rate 1, an infection one
    level up at rate lam * (infected neighbours), and no transition stays in
    a level, so level l reads D_l x_l - A_l x_{l-1} - C_l x_{l+1} = b_l with
    D_l diagonal.  Eliminating from the top level down gives
    x_l = y_l + M_l x_{l-1}, where [M_l | y_l] solves
    S_l [M_l | y_l] = [A_l | b_l + C_l y_{l+1}] against the Schur complement
    S_l = D_l - C_l M_{l+1}; back-substitution runs up from x_0 = 0
    (linear level reduction: Gaver, Jacobs & Latouche 1984).
    """
    adj, r = check_graph(neighbors, lam, root)
    nv = len(adj)

    codes = np.arange(1 << nv)
    bits = codes[:, None] >> np.arange(nv) & 1        # bits[s, v]: v infected in s
    level = bits.sum(axis=1)
    order = np.argsort(level, kind="stable")         # subsets grouped by level
    starts = np.concatenate(([0], np.cumsum(np.bincount(level))))
    pos = np.empty_like(codes)                       # index of a subset in its level
    pos[order] = codes - starts[level[order]]
    pressure = lam * (bits @ adj)                    # infection rate onto v in s

    blocks = [None]   # level l: down targets, up targets, up rates, D_l, b_l
    for l in range(1, nv + 1):
        s = order[starts[l]:starts[l + 1]]
        rows, vs = np.nonzero(bits[s])
        down = pos[s[rows] ^ (1 << vs)].reshape(len(s), l)
        rows, vs = np.nonzero(1 - bits[s])
        up = pos[s[rows] | (1 << vs)].reshape(len(s), nv - l)
        rate = pressure[s[rows], vs].reshape(len(s), nv - l)
        rhs = np.stack([np.ones(len(s)), pressure[s, r] * (1 - bits[s, r])], axis=1)
        blocks.append((down, up, rate, l + rate.sum(axis=1), rhs))

    solved = [None] * (nv + 1)   # level l: [M_l | y_l]
    for l in range(nv, 0, -1):
        down, up, rate, diag, rhs = blocks[l]
        m = len(diag)
        folded = np.zeros((m, m + 2))   # C_l [M_{l+1} | y_{l+1}]
        for j in range(nv - l):
            folded += rate[:, j, None] * solved[l + 1][up[:, j]]
        # S_l's rows sum to l, because every row of M_{l+1} sums to 1: take
        # its diagonal from that, a sum of rates, not the difference D_l - C_l M_{l+1}
        schur = -folded[:, :m]
        np.fill_diagonal(schur, 0.0)
        np.fill_diagonal(schur, l - schur.sum(axis=1))
        stacked = np.zeros((m, starts[l] - starts[l - 1] + 2))
        stacked[np.arange(m)[:, None], down] = 1.0
        stacked[:, -2:] = rhs + folded[:, m:]
        solved[l] = np.linalg.solve(schur, stacked)

    xs = [np.zeros((1, 2))]   # x_0: the empty set, already absorbed
    for l in range(1, nv + 1):
        xs.append(solved[l][:, -2:] + solved[l][:, :-2] @ xs[-1])
        solved[l] = None
    xs.append(np.zeros((0, 2)))
    res = max(float(np.max(np.abs(diag[:, None] * xs[l] - xs[l - 1][down].sum(axis=1)
                                  - (rate[:, :, None] * xs[l + 1][up]).sum(axis=1) - rhs)))
              for l, (down, up, rate, diag, rhs) in enumerate(blocks[1:], start=1))
    scale = max(1.0, max(float(np.max(np.abs(x[:, 0]))) for x in xs[1:-1]))
    if res > SOLVE_RESIDUAL_TOL * scale:
        raise SolveFailure(f"subset-chain solve residual {res} too large")
    start = xs[1][pos[1 << r]]
    return float(start[0]), float(start[1])


def brw_survival(seq: PeriodicDegreeSequence, lam: float, horizon: float,
                 root_residue: int = 0) -> float:
    """P(a BRW from one particle at the root is alive at ``horizon``).

    A particle at height residue i dies at rate 1 and gives birth onto each
    of its g_i children and its parent at rate ``lam``, so the residues form
    a k-type branching process.  q_i(t) = P(extinct by t | one particle at
    residue i) solves the backward equation

        dq_i/dt = 1 - (1 + lam (g_i + 1)) q_i + lam q_i (g_i q_{i+1} + q_{i-1}),

    with q(0) = 0 and indices mod k; the answer is 1 - q_r(horizon), to
    about 1e-10.  LSODA switches to a stiff method when lam * g_i is large.
    """
    from scipy.integrate import solve_ivp

    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and >= 0")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and positive")
    g = np.array(seq.degrees, dtype=float)
    out_rate = 1.0 + lam * (g + 1.0)

    def rhs(_t, q):
        return 1.0 - out_rate * q + lam * q * (g * np.roll(q, -1) + np.roll(q, 1))

    sol = solve_ivp(rhs, (0.0, horizon), np.zeros(seq.period), method="LSODA",
                    rtol=BRW_ODE_RTOL, atol=BRW_ODE_RTOL * 1e-2)
    if not sol.success:
        raise SolveFailure(f"BRW survival ODE failed: {sol.message}")
    return 1.0 - float(sol.y[root_residue % seq.period, -1])


def enumerate_closed_walks(seq: PeriodicDegreeSequence, root_residue: int,
                           two_n: int) -> int:
    """Count closed walks at the root by explicit recursion over vertex addresses.

    The address (u, path) takes u parent steps up the spine from the root,
    then the child slots in ``path`` down.  Slot 1 of a spine vertex is the
    vertex below it, so an address with u > 0 never starts ``path`` with 1.
    The vertex's height residue is (root_residue - u + len(path)) mod k and
    its tree distance to the root is u + len(path).  Independent of the
    first-return DP and of the simulator's tree; small bounds only.
    """
    if two_n < 0 or two_n % 2:
        raise ValueError("walk length must be even and nonnegative")
    if two_n > ENUM_MAX_TWO_N:
        raise LimitExceeded(f"walk length {two_n} exceeds the cap {ENUM_MAX_TWO_N}")
    degrees, k = seq.degrees, seq.period

    def walks(u: int, path: tuple[int, ...], remaining: int) -> int:
        if u + len(path) > remaining:   # cannot get back in time
            return 0
        if not remaining:
            return 1
        remaining -= 1
        total = walks(u, path[:-1], remaining) if path else walks(u + 1, path, remaining)
        for slot in range(1, degrees[(root_residue - u + len(path)) % k] + 1):
            if u and not path and slot == 1:
                total += walks(u - 1, path, remaining)
            else:
                total += walks(u, path + (slot,), remaining)
        return total

    return walks(0, (), two_n)
