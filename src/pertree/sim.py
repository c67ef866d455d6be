"""Event-driven simulation of the contact process and branching random walk.

One per-replica tree engine samples the exact continuous-time chain for
both processes: every infected vertex (or particle) carries total rate
1 + lambda * degree, the next event time is exponential in the total rate,
and transmissions pick a uniform incident edge.  The two differ only in the
occupancy rule: a contact transmission onto an occupied vertex is a no-op,
which keeps the chain exact without boundary-rate bookkeeping, while a
branching random walk stacks particles.  ``run_contact`` and ``run_brw``
are thin wrappers around that loop, which appends a first-touched child to
the arena's flat tables inline and has the arena grow the spine.

A vertex's degree depends only on its height residue, so the k residue
classes of the period share k rates.  Each event draws a class by its total
rate and then a uniform member of it, at O(k) cost whatever the size of the
active set (the rejection-free case of composition-rejection sampling).
Random draws come from the replica's own stream in blocks.

Two vectorized batch engines (star chain, explicit small graphs) serve the
oracle cross-checks, where 1e5 replicas must finish in seconds.  Each only
tabulates its outcome rates and code moves per integer state code; one
stepper, ``_run_chains``, moves the codes of a compact live set.  The star
engine, with its absorb, reach and horizon stops and its leaf-time
integral, is also the only star simulator behind ``pertree star``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .degrees import PeriodicDegreeSequence
from .errors import BracketFailure, CapacityExceeded, LimitExceeded, TooLarge
from .oracle import check_graph
from .rng import stream
from .tree import TreeArena

DEFAULT_MAX_EVENTS = 1_000_000
DEFAULT_MAX_VERTICES = 500_000
DEFAULT_BRW_POP_CAP = 1_000_000
STAR_TABLE_MAX_LEAVES = 1_000_000
BATCH_MAX_STEPS = 1_000_000
WILSON_Z = 1.96
# Replica batches this large run on every worker.  A fork pool of two costs
# 10-70 ms to start and stop (2-vCPU VM).  64 replicas of a (3,4) contact or
# BRW point near threshold take 0.2-0.25 s serially and run 1.3-1.9x faster
# pooled; the batches of a 30-replica lambda_2 bisection stay serial.
POOL_MIN_REPLICAS = 64
CHUNKS_PER_WORKER = 8


# ---------------------------------------------------------------------------
# Configuration and outcome records


@dataclass(frozen=True)
class SimConfig:
    degrees: PeriodicDegreeSequence
    lam: float
    horizon: float
    root_residue: int = 0
    max_events: int = DEFAULT_MAX_EVENTS
    max_vertices: int = DEFAULT_MAX_VERTICES
    seed: int = 0
    replicas: int = 1
    mode: str = "contact"          # "contact" | "brw"
    brw_population_cap: int = DEFAULT_BRW_POP_CAP

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be finite and >= 0")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if (self.replicas < 1 or self.max_events < 1 or self.max_vertices < 1
                or self.brw_population_cap < 1):
            raise ValueError("replicas and caps must be >= 1")
        if self.mode not in ("contact", "brw"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class SimOutcome:
    extinct: bool
    extinction_time: float | None
    root_visit_times: list[float]
    peak_infected: int
    events: int
    truncated: bool
    truncation_reason: str | None = None

    def survived(self, criterion: str, horizon: float) -> bool:
        """Finite-horizon survival proxy; truncated runs count as survived."""
        if criterion == "global":
            return self.truncated or not self.extinct
        if criterion == "local":
            return self.truncated or any(t > horizon / 2.0 for t in self.root_visit_times)
        raise ValueError(f"unknown criterion {criterion!r}")


@dataclass(frozen=True)
class StarState:
    n: int
    j: int
    center: int

    def __post_init__(self):
        if not 0 <= self.j <= self.n or self.center not in (0, 1):
            raise ValueError("invalid star state")


@dataclass
class SurvivalEstimate:
    lam: float
    probability: float
    ci_low: float
    ci_high: float
    replicas: int


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Score-based 95% binomial interval (robust near 0 and 1)."""
    z = WILSON_Z
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Tree engine: event selection by height-residue class
#
# A site at height residue c has graph degree g_c + 1 and total rate
# r_c = 1 + lam * (g_c + 1), so all sites of one class share one rate.  An
# event picks a class with weight n_c * r_c by a scan over the k classes,
# then a uniform member of that class from a swap-remove list, so its cost
# does not grow with the active set.  The total rate sum_c n_c * r_c equals
# n + lam * D and is recomputed every event from two exact integer counts:
# n sites (vertices or particles) and D, the sum of their graph degrees.
#
# The contact process and the branching random walk share one loop and
# differ only in the occupancy rule.  The loop reads the arena's flat tables
# on the hit path and appends a first-touched child to them inline.  A step
# up from the spine bottom (rare) calls ``TreeArena.materialize_parent``.

# Draws per block.  The first block is small, so a replica that dies after a
# few events draws little that it never uses; later blocks double up to the cap.
_FIRST_BLOCK = 16
_MAX_BLOCK = 4096


def _event_draws(rng: np.random.Generator):
    """Endless (exponential, uniform, uniform) triples from ``rng``, one per event."""
    def blocks():
        size = _FIRST_BLOCK
        while True:
            u = rng.random((2, size)).tolist()
            yield zip(rng.standard_exponential(size).tolist(), u[0], u[1])
            size = min(2 * size, _MAX_BLOCK)
    return itertools.chain.from_iterable(blocks())


def _audit_contact(arena: TreeArena, members: list[list[int]],
                   occupied: list[int], lam: float, total: float) -> None:
    """Check the class lists against the arena tables and the occupancy list,
    and the total rate against one recomputed from the class counts."""
    k = len(members)
    heights, parents, stride = arena.heights, arena.parents, arena.stride
    assert len(occupied) == len(heights) == len(parents)
    for key, w in arena.children.items():
        assert parents[w] == key // stride and heights[w] == heights[parents[w]] + 1
    assert [v for v, p in enumerate(parents) if p < 0] == [arena.spine_bottom]
    scratch = 0.0
    for c, m in enumerate(members):
        assert [occupied[v] for v in m] == list(range(len(m)))
        assert all((arena.root_residue + heights[v]) % k == c for v in m)
        scratch += len(m) * (1.0 + lam * (arena.degree_seq.degrees[c] + 1))
    assert sum(i >= 0 for i in occupied) == sum(map(len, members))
    assert math.isclose(total, scratch, rel_tol=1e-12)


def _run_tree(config: SimConfig, replica: int, substream: int, exclusive: bool,
              audit: bool = False) -> SimOutcome:
    """One trajectory from a single site at the root.

    ``exclusive`` is the contact process: a vertex holds at most one site and
    a transmission onto an occupied vertex is a no-op.  Otherwise every birth
    adds a particle (branching random walk).
    """
    rng = stream(config.seed, replica, substream)
    arena = TreeArena(config.degrees, config.root_residue, config.max_vertices)
    heights, parents, children = arena.heights, arena.parents, arena.children
    stride, max_vertices = arena.stride, arena.max_vertices
    lam, horizon, max_events = config.lam, config.horizon, config.max_events
    # A contact population never exceeds the vertex count, so never its cap.
    cap = max_vertices + 1 if exclusive else config.brw_population_cap
    degs = [g + 1 for g in config.degrees.degrees]
    rates = [1.0 + lam * d for d in degs]
    k = len(degs)
    classes = range(k)
    root, rc = arena.root, arena.root_residue
    # Site ids by class; a BRW holds one entry per particle.
    members: list[list[int]] = [[] for _ in classes]
    members[rc].append(root)
    # Contact: each vertex's index in its class list, -1 while healthy.  The
    # BRW never writes it, so every vertex reads as free.
    occupied = [0 if exclusive else -1]
    n = 1
    degree_sum = degs[rc]

    t = 0.0
    visits = [0.0]
    peak = 1
    events = 0
    trunc: str | None = None

    for e, u, a in _event_draws(rng):
        if events >= max_events:
            trunc = "event_cap"
            break
        total = n + lam * degree_sum
        t += e / total
        if t >= horizon:
            t = horizon
            break
        events += 1
        x = u * total
        for c in classes:
            m = members[c]
            w = len(m) * rates[c]
            if x < w:
                break
            x -= w
        else:   # rounding carried x past the last weight
            c = max(c for c in classes if members[c])
            m = members[c]
        r = rates[c]
        # x is uniform on [0, n_c * r_c), so x / r_c picks a uniform member.
        i = int(x / r)
        if i >= len(m):
            i = len(m) - 1
        v = m[i]
        y = a * r
        if y < 1.0:
            last = m.pop()
            if i < len(m):
                m[i] = last
            if exclusive:
                occupied[last] = i
                occupied[v] = -1
            n -= 1
            degree_sum -= degs[c]
            if not n:
                break
        else:
            # y is uniform on [1, r_c): lam-wide slices pick the edge.
            slot = int((y - 1.0) / lam)
            if slot >= degs[c]:
                slot = degs[c] - 1
            if slot:
                cw = (c + 1) % k
                key = v * stride + slot
                w = children.get(key, -1)
                if w < 0:
                    w = len(heights)
                    if w >= max_vertices:
                        trunc = "vertex_cap"
                        break
                    heights.append(heights[v] + 1)
                    parents.append(v)
                    occupied.append(-1)
                    children[key] = w
            else:
                cw = (c - 1) % k
                w = parents[v]
                if w < 0:   # v is the spine bottom: the arena grows the spine
                    try:
                        w = arena.materialize_parent(v)
                    except CapacityExceeded:
                        trunc = "vertex_cap"
                        break
                    occupied.append(-1)
            if occupied[w] < 0:
                mw = members[cw]
                if exclusive:
                    occupied[w] = len(mw)
                mw.append(w)
                n += 1
                degree_sum += degs[cw]
                if w == root:
                    visits.append(t)
                if n > peak:
                    peak = n
                    # n grows by one, so it first reaches the cap at a new peak.
                    if n >= cap:
                        trunc = "population_cap"
                        break
        if audit:
            _audit_contact(arena, members, occupied, lam, n + lam * degree_sum)

    extinct = not n and trunc is None
    return SimOutcome(extinct, t if extinct else None, visits, peak, events,
                      trunc is not None, trunc)


def run_contact(config: SimConfig, replica: int = 0, substream: int = 0,
                audit: bool = False) -> SimOutcome:
    """One exact contact-process trajectory started from the infected root."""
    return _run_tree(config, replica, substream, True, audit)


def run_brw(config: SimConfig, replica: int = 0, substream: int = 0) -> SimOutcome:
    """One branching-random-walk trajectory started from one particle at the root."""
    return _run_tree(config, replica, substream, False)


# ---------------------------------------------------------------------------
# Vectorized batch engines: a state is one integer code, outcome rates are
# tabulated per code with the per-replica float expressions in the same order,
# and one stepper moves only the live chains, kept compact in order.


def _run_chains(engine: str, rates: np.ndarray, moves: np.ndarray, stop: np.ndarray,
                start: int, replicas: int, seed: int, horizon: float = math.inf,
                dwell: np.ndarray | None = None, peak: bool = False,
                count: int | None = None) -> tuple[np.ndarray, ...]:
    """Run ``replicas`` copies of an integer-coded chain from ``start`` to a stop.

    ``rates[i, c]`` is the rate of outcome i at code c, which adds ``moves[i]``
    to the code; the table is cumulated in place, so its last row becomes the
    total rate.  A chain stops on a code where ``stop`` is true, or at exactly
    ``horizon``, where the step that crosses it is not applied.  Returns the
    stop times, then, in this order, only what is asked for: the largest code
    visited (``peak``), the integral of ``dwell[code]`` up to the stop, and
    the number of times outcome ``count`` was taken.  Each step draws
    ``standard_exponential(live)`` then ``random(live)`` from ``stream(seed)``.
    A batch still live after ``BATCH_MAX_STEPS`` steps raises ``LimitExceeded``.
    """
    if replicas < 0:
        raise ValueError("replicas must be >= 0")
    for i in range(1, len(rates)):   # left to right, the order of the per-chain sums
        rates[i] += rates[i - 1]
    cuts, total = list(rates[:-1]), rates[-1]
    # One more outcome, which stays put: a step that the horizon cuts off.
    moves, stay = np.append(moves, 0), len(moves)
    firsts = {"t": 0.0}              # per-chain quantities and their values at the start
    if peak:
        firsts["peak"] = start
    if dwell is not None:
        firsts["area"] = 0.0
    if count is not None:
        firsts["hits"] = 0
    results = {key: np.full(replicas, first) for key, first in firsts.items()}
    live = np.arange(0 if stop[start] else replicas)
    code = np.full(live.size, start)
    chains = {key: np.full(live.size, first) for key, first in firsts.items()}

    rng = stream(seed)
    for _ in range(BATCH_MAX_STEPS):
        if not live.size:
            break
        t = chains["t"]
        rate = total.take(code)
        dt = rng.standard_exponential(live.size) / rate
        u = rng.random(live.size) * rate
        # The cuts are non-decreasing: the outcome is how many of them u passed.
        # A cut equal to u counts as passed, so a zero-rate outcome is never taken.
        # Summed as bytes (fewer than 256 outcomes): an in-place bool-to-int
        # add casts, which costs more.
        outcome = (cuts[0].take(code) <= u).view(np.uint8)
        for row in cuts[1:]:
            outcome += (row.take(code) <= u).view(np.uint8)
        if horizon < math.inf:   # no clamp work on the other paths
            over = t + dt >= horizon
            dt[over], outcome[over] = horizon - t[over], stay
        t += dt
        if dwell is not None:
            dt *= dwell.take(code)
            chains["area"] += dt
        if count is not None:
            chains["hits"] += outcome == count
        code += moves.take(outcome)
        if peak:
            np.maximum(chains["peak"], code, out=chains["peak"])
        done = stop.take(code)
        if horizon < math.inf:
            t[over] = horizon
            done |= over
        if done.any():
            # index arrays once: a boolean mask would rescan done per array
            gone, keep = np.flatnonzero(done), np.flatnonzero(~done)
            out = live.take(gone)
            for key, a in chains.items():
                results[key][out] = a.take(gone)
            live, code = live.take(keep), code.take(keep)
            chains = {key: a.take(keep) for key, a in chains.items()}
    if live.size:
        raise LimitExceeded(f"{engine} still live after {BATCH_MAX_STEPS} steps")
    return tuple(results.values())


def star_runs(n: int, lam: float, init: StarState, replicas: int, seed: int = 0,
              level: int | None = None, horizon: float = math.inf
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (infected leaves, center) chains run to a stop.

    Transitions: j -> j+1 at rate lam*(n-j) while the center is infected,
    j -> j-1 at rate j, center 1 -> 0 at rate 1, center 0 -> 1 at rate lam*j.
    A replica stops on absorption at (0,0), on j >= ``level`` when a level is
    given, or at exactly ``horizon``, where the step that crosses it is not
    applied.  Returns (stop_times, peak_leaf_counts, leaf_times), the last
    being the integral of j up to the stop.  One counter-based generator
    drives the whole batch; the result is deterministic in the arguments.
    A batch still live after ``BATCH_MAX_STEPS`` steps raises ``LimitExceeded``.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and >= 0")
    if init.n != n:
        raise ValueError(f"start state is on a star with {init.n} leaves, not {n}")
    if level is not None and level < 1:
        raise ValueError("level must be >= 1")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if n > STAR_TABLE_MAX_LEAVES:   # the per-state tables peak near 130 bytes a leaf
        raise TooLarge(f"star size {n} exceeds the cap {STAR_TABLE_MAX_LEAVES}")
    j, m = np.divmod(np.arange(2 * (n + 1)), 2)   # code 2j + center
    # up, down, center off, center on; the ints become exact floats
    rates = np.stack([lam * (n - j) * m, j, m, lam * j * (1 - m)])
    stop = (j + m == 0) | (j >= (level or n + 1))   # absorbed at (0, 0), or reached
    del m
    times, peak, leaf_time = _run_chains(
        "star batch", rates, np.array([2, -2, -1, 1]), stop, 2 * init.j + init.center,
        replicas, seed, horizon, dwell=j.astype(float), peak=True)
    return times, peak >> 1, leaf_time          # max code, max j


def star_batch(n: int, lam: float, init: StarState, replicas: int,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized star chains run to absorption: (absorption_times, peak_leaf_counts)."""
    return star_runs(n, lam, init, replicas, seed)[:2]


def contact_graph_batch(neighbors: dict[int, list[int]], lam: float, root: int,
                        replicas: int, seed: int = 0):
    """Vectorized contact process on a small explicit graph, run to extinction.

    Returns (extinction_times, root_reinfection_counts).  Checked against the
    exact subset-chain oracle (``oracle.exact_contact_small``) at scale.  A
    batch still live after ``BATCH_MAX_STEPS`` steps raises ``LimitExceeded``.
    """
    adj, r = check_graph(neighbors, lam, root)
    nv = len(adj)
    # Code s is the infected-subset bitmask.  Outcome v < nv recovers vertex v
    # and outcome nv + v infects it: moves of -2^v and +2^v, taken only at a
    # positive rate, so while v is infected and healthy respectively.
    codes = np.arange(1 << nv)
    infected = (codes >> np.arange(nv)[:, None] & 1).astype(float)
    rates = np.concatenate([infected, lam * (adj @ infected) * (1 - infected)])
    bits = 1 << np.arange(nv)
    return _run_chains("graph batch", rates, np.concatenate([-bits, bits]), codes == 0,
                       1 << r, replicas, seed, count=nv + r)


# ---------------------------------------------------------------------------
# Replica orchestration, survival curves, threshold bisection


def _replica_chunk(config: SimConfig, indices: range, substream: int):
    runner = run_contact if config.mode == "contact" else run_brw
    return [runner(config, replica=i, substream=substream) for i in indices]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """Replica-parallel workers: CP_THREADS, default every usable CPU, at most that many.

    A CP_THREADS that is not an integer raises ``ValueError``; 0 and negative
    values mean 1.
    """
    text = os.environ.get("CP_THREADS", "").strip()
    if not text:
        return usable_cpus()
    try:
        requested = int(text)
    except ValueError:
        raise ValueError(f"CP_THREADS must be an integer, got {text!r}") from None
    return max(1, min(requested, usable_cpus()))


def run_replicas(config: SimConfig, substream: int = 0,
                 indices: range | None = None) -> list[SimOutcome]:
    """The replicas of a config (all, or those in ``indices``), ordered by index.

    Replicas are independent work items.  A batch of at least
    ``POOL_MIN_REPLICAS`` runs on ``worker_count()`` processes, in a pool
    that lives only for this call; a smaller batch, or one worker, runs
    here.  Results are identical either way because each replica owns its
    stream and chunks come back in index order.
    """
    if indices is None:
        indices = range(config.replicas)
    workers = worker_count()
    n = len(indices)
    if workers == 1 or n < POOL_MIN_REPLICAS:
        return _replica_chunk(config, indices, substream)
    import multiprocessing
    import sys
    from concurrent.futures import ProcessPoolExecutor
    # Fork, not spawn: a spawn pool of two takes about 0.3 s to start and
    # stop, mostly importing numpy and this module in each worker, and a
    # spawned worker re-runs the caller's __main__, which raises in a script
    # without a main guard.  The executor forks every worker before its
    # manager thread starts, and replicas make no BLAS calls, so no lock is
    # held across the fork.
    context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    # Contiguous chunks, several per worker: one capped replica can cost as
    # much as hundreds of quick deaths, so equal shares would not balance.
    size = -(-n // (CHUNKS_PER_WORKER * workers))
    chunks = [indices[i:i + size] for i in range(0, n, size)]
    with ProcessPoolExecutor(min(workers, len(chunks)), mp_context=context) as pool:
        parts = pool.map(_replica_chunk, itertools.repeat(config), chunks,
                         itertools.repeat(substream))
        return [outcome for part in parts for outcome in part]


def survival_curve(seq: PeriodicDegreeSequence, lam: float, horizon: float,
                   replicas: int, seed: int, criterion: str = "global",
                   mode: str = "contact", root_residue: int = 0,
                   max_events: int = DEFAULT_MAX_EVENTS,
                   max_vertices: int = DEFAULT_MAX_VERTICES,
                   brw_population_cap: int = DEFAULT_BRW_POP_CAP,
                   substream: int = 0) -> SurvivalEstimate:
    """Survival probability over independent replicas with a Wilson interval.

    Replica i draws from the stream keyed (seed, i, substream); truncated
    replicas count as survived (optimistic labeling, by design).
    """
    if criterion not in ("global", "local"):
        raise ValueError(f"unknown criterion {criterion!r}")
    config = SimConfig(seq, lam, horizon, root_residue, max_events,
                       max_vertices, seed, replicas, mode, brw_population_cap)
    outcomes = run_replicas(config, substream)
    survived = sum(1 for o in outcomes if o.survived(criterion, horizon))
    p = survived / replicas
    low, high = wilson_interval(survived, replicas)
    return SurvivalEstimate(lam, p, low, high, replicas)


@dataclass(frozen=True)
class Lambda2Protocol:
    lam_lo: float
    lam_hi: float
    horizon: float
    replicas: int
    seed: int
    target_probability: float = 0.05
    tolerance: float = 0.01
    criterion: str = "local"
    mode: str = "contact"
    max_events: int = DEFAULT_MAX_EVENTS
    max_vertices: int = DEFAULT_MAX_VERTICES
    brw_population_cap: int = DEFAULT_BRW_POP_CAP

    def __post_init__(self):
        # A tolerance <= 0 never ends the bisection once lo == hi.
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if not 0 < self.target_probability <= 1:
            raise ValueError("target probability must be in (0, 1]")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.criterion not in ("global", "local"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.mode not in ("contact", "brw"):
            raise ValueError(f"unknown mode {self.mode!r}")


def estimate_lambda2(seq: PeriodicDegreeSequence,
                     protocol: Lambda2Protocol,
                     root_residue: int = 0) -> tuple[float, float]:
    """Bisect the rate at which finite-horizon local survival crosses the target.

    Returns a bracketing interval of width <= the protocol tolerance; the
    whole procedure is deterministic in the protocol seed (each bisection
    step uses its own substream).

    Each step needs one bit: does the survival estimate p = s / replicas
    pass the target (``p > target`` at the lower bracket, ``p >= target`` at
    the upper bracket and at every midpoint)?  That holds exactly when the
    survivor count s reaches ``need``, the least count that passes, found
    with the same float expression.  Replicas run in index order, in
    ``run_replicas`` batches (pooled when large enough), and stop as soon as
    s >= need, or as soon as s plus the replicas not yet run falls short of
    need.  Replica i draws from its own stream (seed, i, substream), so the
    replicas that do run give the same survivors as in a full sample, and
    the bit, the bracket and every ``BracketFailure`` are those of running
    all replicas.  Only the replicas that cannot change the bit are skipped.
    """
    if protocol.lam_hi < protocol.lam_lo:
        raise BracketFailure("upper bracket below lower bracket")
    replicas, target = protocol.replicas, protocol.target_probability

    def need(rule) -> int:
        # p = s / replicas is non-decreasing in s; replicas + 1 if no s passes.
        return bisect.bisect_left(range(replicas + 1), True,
                                  key=lambda s: rule(s / replicas))

    above = need(lambda p: p > target)
    at_least = need(lambda p: p >= target)

    def reaches(lam: float, substream: int, count: int) -> bool:
        """Whether at least ``count`` of the replicas at ``lam`` survive."""
        config = SimConfig(seq, lam, protocol.horizon, root_residue,
                           protocol.max_events, protocol.max_vertices,
                           protocol.seed, replicas, protocol.mode,
                           protocol.brw_population_cap)
        survivors, ran = 0, 0
        while 0 < count - survivors <= replicas - ran:
            # A batch never outruns the verdict: it takes `short` more
            # survivors to settle yes, and one death more than the slack
            # left after those to settle no.
            short = count - survivors
            batch = min(short, replicas - ran - short + 1)
            outcomes = run_replicas(config, substream, range(ran, ran + batch))
            survivors += sum(o.survived(protocol.criterion, protocol.horizon)
                             for o in outcomes)
            ran += batch
        return survivors >= count

    if reaches(protocol.lam_lo, 0, above):
        raise BracketFailure("survival already above target at the lower bracket")
    if not reaches(protocol.lam_hi, 1, at_least):
        raise BracketFailure("survival below target at the upper bracket")
    lo, hi = protocol.lam_lo, protocol.lam_hi
    substream = 2
    while hi - lo > protocol.tolerance:
        mid = 0.5 * (lo + hi)
        if reaches(mid, substream, at_least):
            hi = mid
        else:
            lo = mid
        substream += 1
    return lo, hi
