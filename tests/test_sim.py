"""Simulation engines: determinism, exactness spot checks, thresholds."""

import concurrent.futures
import hashlib
import inspect
import math
import os

import numpy as np
import pytest
from scipy.linalg import expm

from pertree.bounds import lambda2_asymptotic, lambda_g
from pertree.degrees import PeriodicDegreeSequence
from pertree.errors import BracketFailure, LimitExceeded, TooLarge
from pertree import sim
from pertree.oracle import exact_contact_small, star_mean_absorption
from pertree.sim import (
    Lambda2Protocol,
    SimConfig,
    StarState,
    contact_graph_batch,
    estimate_lambda2,
    run_brw,
    run_contact,
    run_replicas,
    star_batch,
    star_runs,
    survival_curve,
    wilson_interval,
    worker_count,
)
from test_acceptance import GRAPH_FIXTURES


def seq(*degs):
    return PeriodicDegreeSequence(degs)


def config(**kw):
    base = dict(degrees=seq(3, 4), lam=0.3, horizon=10.0, seed=11)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# Determinism


def test_contact_deterministic():
    c = config(seed=42)
    assert run_contact(c, replica=3) == run_contact(c, replica=3)
    assert run_contact(c, replica=3) != run_contact(c, replica=4)


def test_brw_deterministic():
    c = config(mode="brw", seed=42, brw_population_cap=500)
    assert run_brw(c, replica=0) == run_brw(c, replica=0)


@pytest.mark.parametrize("mode", ["contact", "brw"])
def test_both_engine_names_run_the_mode_of_the_config(mode):
    assert run_contact is run_brw
    c = config(mode=mode, lam=0.4, seed=21, max_events=3000, brw_population_cap=500)
    for replica in range(3):
        assert repr(run_contact(c, replica)) == repr(run_brw(c, replica))


def test_star_deterministic():
    a = star_runs(5, 0.5, StarState(5, 0, 1), 50, seed=9, horizon=2.0)
    b = star_runs(5, 0.5, StarState(5, 0, 1), 50, seed=9, horizon=2.0)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_batch_engines_deterministic():
    t1, p1 = star_batch(5, 0.5, StarState(5, 0, 1), 500, seed=3)
    t2, p2 = star_batch(5, 0.5, StarState(5, 0, 1), 500, seed=3)
    assert np.array_equal(t1, t2) and np.array_equal(p1, p2)
    g = {0: [1], 1: [0]}
    a = contact_graph_batch(g, 1.0, 0, 400, seed=5)
    b = contact_graph_batch(g, 1.0, 0, 400, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


# SHA-256 of the output arrays' bytes, in order, at fixed seeds: any change to
# the engines' float arithmetic or to the order of their draws shows here.
STAR_GOLDEN = [
    (5, 0.5, StarState(5, 0, 1), 3000, 31,
     "a9436fd4b89882124aaa785465b2c07eaac36b6a4e5f0041a94c64dd92459d36"),
    (10, 1.0, StarState(10, 4, 0), 3000, 32,
     "b73722a1135369b2171e5454c3e1b103c9c9eda6608550e2b394bb91817e4076"),
]
# The horizon column is math.inf in every row: the graph batch runs to
# extinction.  It stays so the rows keep their test ids.
GRAPH_GOLDEN = [
    (0, math.inf, 34, "4a4e01b693d65598f7124fa86df4d90c87cc797fa603f8d94c248e3dbb417789"),
    (1, math.inf, 35, "0686f01427a7578ab356367cee11f0b0d047bee88574cdf672adfd9c06b97c5b"),
    (2, math.inf, 36, "310ab916350a0ce519f34ee9917cba6876bbd1befdc460716927306edf33d943"),
]


@pytest.mark.parametrize("n,lam,init,replicas,seed,digest", STAR_GOLDEN)
def test_star_batch_golden_outputs(n, lam, init, replicas, seed, digest):
    assert _digest(*star_batch(n, lam, init, replicas, seed=seed)) == digest


@pytest.mark.parametrize("n,lam,init,seed,stops,digest", [
    (5, 0.5, StarState(5, 2, 1), 37, dict(horizon=1.5),
     "8cad92747bc34225af719f559e3c7607551edbecc95722b12aa3ffaae6cf01a3"),
    (10, 1.0, StarState(10, 0, 1), 38, dict(level=6),
     "5cfb6ca91353e72ad8b613a81eab8df992add448f5a5ea42e5d1e46552b4ac6e"),
])
def test_star_runs_golden_outputs(n, lam, init, seed, stops, digest):
    assert _digest(*star_runs(n, lam, init, 3000, seed=seed, **stops)) == digest


def test_star_batch_from_absorbed_state():
    times, peaks = star_batch(5, 0.5, StarState(5, 0, 0), 50, seed=33)
    assert times.dtype == np.float64 and peaks.dtype == np.int64
    assert not times.any() and not peaks.any()
    assert _digest(times, peaks) == \
        "67042dfda5683aead81b6055d19c4dba238341f9dd82f49c0e7cc0c19c5f10d1"


def test_star_batch_empty_batch():
    times, peaks = star_batch(5, 0.5, StarState(5, 0, 1), 0)
    assert times.shape == peaks.shape == (0,)
    assert times.dtype == np.float64 and peaks.dtype == np.int64


def test_star_batch_asks_for_no_leaf_time_integral(monkeypatch):
    calls = []
    run_chains = sim._run_chains

    def recording(*args, **kwargs):
        calls.append(inspect.signature(run_chains).bind(*args, **kwargs).arguments)
        return run_chains(*args, **kwargs)

    monkeypatch.setattr(sim, "_run_chains", recording)
    star_batch(5, 0.5, StarState(5, 0, 1), 50, seed=3)
    assert len(calls) == 1 and "dwell" not in calls[0]


@pytest.mark.parametrize("fixture,horizon,seed,digest", GRAPH_GOLDEN)
def test_contact_graph_batch_golden_outputs(fixture, horizon, seed, digest):
    graph, lam, root = GRAPH_FIXTURES[fixture]
    out = contact_graph_batch(graph, lam, root, 2000, seed=seed)
    assert _digest(*out) == digest


def test_contact_graph_batch_size_cap():
    def path(nv):
        return {v: [w for w in (v - 1, v + 1) if 0 <= w < nv] for v in range(nv)}
    with pytest.raises(TooLarge):
        contact_graph_batch(path(15), 0.5, 0, 10)
    times, _ = contact_graph_batch(path(14), 0.5, 0, 10)   # 2^14 states: the cap
    assert (times > 0).all()


def test_contact_graph_batch_step_budget(monkeypatch):
    g = {0: [1], 1: [0]}
    times, _ = contact_graph_batch(g, 5.0, 0, 100, seed=1)
    assert (times > 0).all()
    monkeypatch.setattr(sim, "BATCH_MAX_STEPS", 3)
    with pytest.raises(LimitExceeded, match="graph batch still live after 3 steps"):
        contact_graph_batch(g, 5.0, 0, 100, seed=1)


def test_contact_graph_batch_rejects_unknown_root():
    with pytest.raises(ValueError, match="root 5 is not a vertex"):
        contact_graph_batch({0: [1], 1: [0]}, 1.0, 5, 10)


def test_contact_graph_batch_rejects_a_bad_lambda():
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            contact_graph_batch({0: [1], 1: [0]}, lam, 0, 10)


@pytest.mark.parametrize("graph,message", [
    ({0: [1]}, "neighbor 1 of vertex 0 is not a vertex of the graph"),
    ({0: [1], 1: []}, "edge 0-1 is not listed at 1"),
    ({0: [1, 2], 1: [0], 2: [0, 1]}, "edge 2-1 is not listed at 1"),
    ({0: [0]}, "self-loop at vertex 0"),
    ({0: [1, 1], 1: [0, 0]}, "edge 0-1 is listed twice at 0"),
])
@pytest.mark.parametrize("solve", [
    lambda g: exact_contact_small(g, 1.0, 0),
    lambda g: contact_graph_batch(g, 1.0, 0, 10),
], ids=["oracle", "batch"])
def test_bad_graph_is_rejected_by_both_chains(solve, graph, message):
    with pytest.raises(ValueError, match=message):
        solve(graph)


@pytest.mark.parametrize("run", [
    lambda replicas: star_runs(5, 0.5, StarState(5, 0, 1), replicas),
    lambda replicas: contact_graph_batch({0: [1], 1: [0]}, 1.0, 0, replicas),
], ids=["star", "graph"])
def test_batch_engines_reject_negative_replicas(run):
    with pytest.raises(ValueError, match="replicas must be >= 0"):
        run(-3)
    assert all(a.shape == (0,) for a in run(0))


class _TieStream:
    """Stands in for ``sim.stream``: every exponential is 1.0 and every uniform 0.0."""

    def __init__(self):
        self.calls = 0

    def __call__(self, seed):
        self.calls += 1
        return self

    def standard_exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return np.zeros(size)


def test_batch_engines_never_take_a_zero_rate_outcome(monkeypatch):
    # A uniform of 0.0 lands on every leading cut of zero width; the outcome
    # taken must be the first one with a positive rate.
    tie = _TieStream()
    monkeypatch.setattr(sim, "stream", tie)
    path = {0: [1], 1: [0, 2], 2: [1]}
    # from {1}: recovering 0 has rate 0, recovering 1 rate 1, total 1 + 2 * 0.5
    times, visits = contact_graph_batch(path, 0.5, 1, 50)
    assert (times == 0.5).all() and not visits.any()
    assert tie.calls == 1
    # center on, no leaf: the up move is the first outcome and has rate lam * n
    times, peaks, _ = star_runs(4, 0.5, StarState(4, 0, 1), 50, horizon=0.5)
    assert (times == 0.5).all() and (peaks == 1).all()
    assert tie.calls == 2
    # every leaf infected: the up move has rate 0, so the first step goes
    # down to 3 leaves at t = 1/5 and the second crosses the horizon
    times, peaks, leaf_time = star_runs(4, 0.5, StarState(4, 4, 1), 50, horizon=0.3)
    assert (times == 0.3).all() and (peaks == 4).all()
    assert np.allclose(leaf_time, 4 * 0.2 + 3 * 0.1)
    assert tie.calls == 3


def test_star_runs_step_budget(monkeypatch):
    monkeypatch.setattr(sim, "BATCH_MAX_STEPS", 100)
    with pytest.raises(LimitExceeded):
        star_runs(60, 1.0, StarState(60, 0, 1), 10, seed=1)
    times, _, _ = star_runs(60, 1.0, StarState(60, 0, 1), 10, seed=1, horizon=0.5)
    assert (times <= 0.5).all()


def pool_on_two_workers(monkeypatch) -> list:
    """From here on, batches of 4 or more replicas run in a pool of two workers.

    Returns the argument tuples of every ``ProcessPoolExecutor`` made, so a
    test can check that the pooled path ran.
    """
    monkeypatch.setenv("CP_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sim, "POOL_MIN_REPLICAS", 4)
    pools, real = [], concurrent.futures.ProcessPoolExecutor

    def recording(*args, **kwargs):
        pools.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    return pools


def test_run_replicas_parallel_matches_serial(monkeypatch):
    c = config(replicas=8, seed=5)
    serial = run_replicas(c)
    pools = pool_on_two_workers(monkeypatch)
    parallel = run_replicas(c)
    assert parallel == serial
    assert pools == [(2,)]


def test_run_replicas_index_range(monkeypatch):
    c = config(replicas=12, seed=5)
    full = run_replicas(c)
    assert run_replicas(c, indices=range(3, 11)) == full[3:11]
    assert run_replicas(c, indices=range(0)) == []
    pools = pool_on_two_workers(monkeypatch)
    assert run_replicas(c, indices=range(3, 11)) == full[3:11]
    assert pools == [(2,)]


def test_run_replicas_pools_large_batches_by_default(monkeypatch):
    # Below POOL_MIN_REPLICAS a batch runs in this process whatever CP_THREADS says.
    pools = pool_on_two_workers(monkeypatch)
    monkeypatch.setattr(sim, "POOL_MIN_REPLICAS", 64)
    c = config(replicas=64, seed=5, horizon=2.0)
    assert len(run_replicas(c, indices=range(63))) == 63
    assert pools == []
    monkeypatch.delenv("CP_THREADS")
    pooled = run_replicas(c)
    assert pools == [(2,)]
    monkeypatch.setenv("CP_THREADS", "1")
    assert run_replicas(c) == pooled
    assert pools == [(2,)]


def test_worker_count_capped_at_core_count(monkeypatch):
    monkeypatch.setenv("CP_THREADS", "100000")
    assert worker_count() == sim.usable_cpus()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1
    monkeypatch.setenv("CP_THREADS", "0")
    assert worker_count() == 1


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    for unset in (None, "", " "):
        if unset is None:
            monkeypatch.delenv("CP_THREADS", raising=False)
        else:
            monkeypatch.setenv("CP_THREADS", unset)
        assert worker_count() == 3
    for value, expected in (("1", 1), ("2", 2), (" 2 ", 2), ("-4", 1)):
        monkeypatch.setenv("CP_THREADS", value)
        assert worker_count() == expected


def test_worker_count_rejects_a_value_that_is_not_an_integer(monkeypatch):
    for value in ("two", "1.5", "2x"):
        monkeypatch.setenv("CP_THREADS", value)
        with pytest.raises(ValueError, match="CP_THREADS"):
            worker_count()


# ---------------------------------------------------------------------------
# Single-particle exactness (lambda = 0)


def test_contact_lambda0_mean_lifetime():
    c = config(lam=0.0, horizon=100.0, replicas=20_000, seed=1)
    times = [o.extinction_time for o in run_replicas(c)]
    assert all(t is not None for t in times)
    mean = float(np.mean(times))
    se = float(np.std(times)) / math.sqrt(len(times))
    assert abs(mean - 1.0) <= 3 * se


def test_brw_lambda0_mean_lifetime():
    c = config(mode="brw", lam=0.0, horizon=100.0, replicas=20_000, seed=2)
    times = [o.extinction_time for o in run_replicas(c)]
    mean = float(np.mean(times))
    se = float(np.std(times)) / math.sqrt(len(times))
    assert abs(mean - 1.0) <= 3 * se


def brw_mean_events(degs, lam, horizon, root_residue=0):
    """Exact mean BRW event count before the horizon.

    The mean particle count by height residue evolves as e_r^T exp(sQ),
    Q = lam*B - I, where B moves a particle down one residue with weight 1
    and up one with weight g; events happen at rate 1 + lam*(g+1) per
    particle.  The top-right block of exp([[Q, I], [0, 0]] t) is the time
    integral of exp(sQ) over [0, t].
    """
    k = len(degs)
    b = np.zeros((k, k))
    for r, g in enumerate(degs):
        b[r, (r - 1) % k] += 1
        b[r, (r + 1) % k] += g
    q = lam * b - np.eye(k)
    block = np.zeros((2 * k, 2 * k))
    block[:k, :k] = q
    block[:k, k:] = np.eye(k)
    integral = expm(block * horizon)[:k, k:]
    rates = 1.0 + lam * (np.array(degs) + 1.0)
    return float(integral[root_residue % k] @ rates)


@pytest.mark.parametrize("degs,root_residue", [
    ((3,), 0), ((3, 4), 0), ((2, 3, 4), 0), ((2, 3, 4), 1)])
def test_brw_mean_events_matches_closed_form(degs, root_residue):
    # lambda > 0 exercises every class rate; the caps never bind
    lam = 0.9 * lambda_g(seq(*degs))
    c = config(degrees=seq(*degs), mode="brw", lam=lam, horizon=8.0,
               root_residue=root_residue, replicas=60_000, seed=31)
    outcomes = run_replicas(c)
    assert not any(o.truncated for o in outcomes)
    events = np.array([o.events for o in outcomes], dtype=float)
    se = float(events.std()) / math.sqrt(events.size)
    exact = brw_mean_events(degs, lam, 8.0, root_residue)
    assert abs(float(events.mean()) - exact) <= 3 * se


def test_star_lambda0_mean_lifetime():
    times, _, _ = star_runs(4, 0.0, StarState(4, 0, 1), 20_000, seed=8)
    mean = float(np.mean(times))
    se = float(np.std(times)) / math.sqrt(len(times))
    assert abs(mean - 1.0) <= 3 * se


# ---------------------------------------------------------------------------
# Audit mode and outcome bookkeeping


def test_contact_audit_mode(monkeypatch):
    seen = {"swaps": 0, "classes": 0, "min_height": 0, "prev": None}
    audit = sim._audit_contact

    def recording_audit(arena, members, pos, lam, total):
        audit(arena, members, pos, lam, total)
        prev = seen["prev"]
        if prev is not None:
            # a death of a non-last member moves the last one into its place
            seen["swaps"] += sum(len(m) == len(p) - 1 and m != p[:-1]
                                 for p, m in zip(prev, members))
        seen["prev"] = [list(m) for m in members]
        seen["classes"] = max(seen["classes"], sum(1 for m in members if m))
        seen["min_height"] = min(arena.heights)

    monkeypatch.setattr(sim, "_audit_contact", recording_audit)
    c = config(lam=0.5, horizon=8.0, seed=3)
    outcome = run_contact(c, audit=True)
    assert outcome.peak_infected >= 1
    assert outcome.root_visit_times == sorted(outcome.root_visit_times)
    # the audited paths: swap-remove deaths, spine growth, root revisits
    assert seen["swaps"] >= 1
    assert seen["min_height"] < 0
    assert len(outcome.root_visit_times) >= 2
    assert seen["classes"] == 2


# Fixed-seed outcomes of the tree engines: (events, peak, extinction time,
# root visits, truncation reason).  They were recorded with the eagerly
# materialized tree; any change to stream consumption or to the tree's
# logical shape moves them.
GOLDEN_OUTCOMES = [
    ("contact", (1, 100), 0.13, 10.0, 7, 4, (3000, 625, None, 1, "event_cap")),
    ("contact", (1, 100), 0.13, 10.0, 7, 7, (53, 12, 5.614172277382881, 1, None)),
    ("contact", (1, 100), 0.13, 10.0, 7, 10, (2114, 324, None, 1, None)),
    ("contact", (3, 4), 0.4, 8.0, 11, 7, (363, 61, None, 3, None)),
    ("contact", (3, 4), 0.4, 8.0, 11, 11, (97, 13, 6.4677499468801605, 2, None)),
    ("contact", (3, 4), 0.4, 8.0, 11, 23, (27, 6, 4.588090841631477, 3, None)),
    ("brw", (3, 4), 0.25, 8.0, 11, 15, (31, 6, 7.600747533156132, 1, None)),
    ("brw", (3, 4), 0.25, 8.0, 11, 18, (336, 49, None, 7, None)),
    ("brw", (3, 4), 0.25, 8.0, 11, 29, (31, 7, 5.812075846716763, 3, None)),
]


@pytest.mark.parametrize("mode,degs,lam,horizon,seed,replica,expected", GOLDEN_OUTCOMES)
def test_tree_engine_golden_outcomes(mode, degs, lam, horizon, seed, replica, expected):
    c = config(degrees=seq(*degs), lam=lam, horizon=horizon, seed=seed,
               max_events=3000, mode=mode)
    o = (run_contact if mode == "contact" else run_brw)(c, replica=replica)
    assert (o.events, o.peak_infected, o.extinction_time,
            len(o.root_visit_times), o.truncation_reason) == expected


# Whole fixed-seed outcomes of both tree engines, hashed: periods 1-3, non-zero
# root residues, spine growth and every truncation reason.  Columns: mode,
# degrees, lam, horizon, root residue, max_events, max_vertices, BRW population
# cap, seed.  The digest was taken before the engines were merged into one loop.
DIGEST_CASES = [
    ("contact", (3,), 0.45, 10.0, 0, 3000, 500_000, 10**6, 5),
    ("contact", (1, 100), 0.13, 10.0, 0, 3000, 500_000, 10**6, 7),
    ("contact", (2, 3, 4), 0.45, 8.0, 2, 3000, 500_000, 10**6, 9),
    ("contact", (2, 3, 4), 1.0, 8.0, 1, 3000, 40, 10**6, 13),
    ("brw", (3,), 0.2, 8.0, 0, 3000, 500_000, 10**6, 5),
    ("brw", (3, 4), 0.25, 8.0, 1, 3000, 500_000, 10**6, 11),
    ("brw", (2, 3, 4), 0.5, 8.0, 0, 150, 500_000, 10**6, 17),
    ("brw", (2, 3, 4), 0.6, 8.0, 2, 3000, 40, 10**6, 13),
    ("brw", (3, 4), 0.5, 8.0, 0, 3000, 500_000, 40, 19),
]
DIGEST_REPLICAS = 12
OUTCOMES_DIGEST = "3fc8a987ce74c39f93da4b532006690306e164b73e515960cb7e20ca5bded330"


def test_tree_engine_outcome_digest(monkeypatch):
    arenas = []

    class RecordingArena(sim.TreeArena):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            arenas.append(self)

    monkeypatch.setattr(sim, "TreeArena", RecordingArena)
    digest = hashlib.sha256()
    reasons = {"contact": set(), "brw": set()}
    spine = {"contact": 0, "brw": 0}
    for mode, degs, lam, horizon, residue, events, vertices, cap, seed in DIGEST_CASES:
        c = SimConfig(seq(*degs), lam, horizon, residue, events, vertices, seed,
                      DIGEST_REPLICAS, mode, cap)
        runner = run_contact if mode == "contact" else run_brw
        arenas.clear()
        for replica in range(DIGEST_REPLICAS):
            o = runner(c, replica=replica)
            digest.update(repr(o).encode())
            reasons[mode].add(o.truncation_reason)
        spine[mode] += sum(min(a.heights) < 0 for a in arenas)
    assert reasons == {"contact": {None, "event_cap", "vertex_cap"},
                       "brw": {None, "event_cap", "vertex_cap", "population_cap"}}
    assert spine["contact"] and spine["brw"]
    assert digest.hexdigest() == OUTCOMES_DIGEST


def test_truncation_flags():
    c = config(lam=5.0, horizon=50.0, max_events=200)
    out = run_contact(c)
    assert out.truncated and out.truncation_reason == "event_cap"
    assert not out.extinct and out.extinction_time is None
    assert out.survived("global", c.horizon)
    assert out.survived("local", c.horizon)    # optimistic labeling
    c2 = config(mode="brw", lam=5.0, horizon=50.0, brw_population_cap=50)
    out2 = run_brw(c2)
    assert out2.truncated and out2.truncation_reason == "population_cap"


def test_survived_checks_the_criterion_before_truncation():
    out = run_contact(config(lam=5.0, horizon=50.0, max_events=200))
    assert out.truncated
    assert out.survived("global", 50.0) and out.survived("local", 50.0)
    with pytest.raises(ValueError, match="unknown criterion 'bogus'"):
        out.survived("bogus", 50.0)


def test_vertex_cap_truncation():
    c = config(lam=5.0, horizon=50.0, max_vertices=20)
    out = run_contact(c)
    assert out.truncated and out.truncation_reason == "vertex_cap"


def test_spine_step_at_the_vertex_cap_goes_through_the_arena(monkeypatch):
    calls = []

    class CountingArena(sim.TreeArena):
        def materialize_parent(self, vid):
            calls.append(vid)
            return super().materialize_parent(vid)

    monkeypatch.setattr(sim, "TreeArena", CountingArena)
    spine_steps = 0
    for mode, runner in (("contact", run_contact), ("brw", run_brw)):
        c = config(degrees=seq(1), lam=5.0, horizon=50.0, max_vertices=1, mode=mode)
        for replica in range(20):
            calls.clear()
            out = runner(c, replica=replica)
            if calls:   # the first event was a step up from the root
                assert calls == [0]
                assert out.events == 1 and out.peak_infected == 1
                assert out.truncated and out.truncation_reason == "vertex_cap"
                spine_steps += 1
            else:   # a death, or a step down to a child at the cap
                assert out.events == 1
                assert out.extinct or out.truncation_reason == "vertex_cap"
    assert spine_steps >= 5


# ---------------------------------------------------------------------------
# Star chain vs the exact solve


def test_star_absorption_matches_oracle_from_multiple_states():
    # agreement from several start states pins down all four transition rates
    n, lam, reps = 3, 0.7, 10_000
    oracle = star_mean_absorption(n, lam).expected_time
    for idx, init in enumerate([StarState(3, 0, 1), StarState(3, 2, 0),
                                StarState(3, 3, 1)]):
        times, _, _ = star_runs(n, lam, init, reps, seed=100 + idx)
        mean = float(np.mean(times))
        se = float(np.std(times)) / math.sqrt(reps)
        assert abs(mean - oracle[(init.j, init.center)]) <= 3 * se


def test_star_absorbed_immediately():
    times, peaks, leaf_time = star_runs(7, 0.9, StarState(7, 0, 0), 1, seed=1)
    assert times[0] == 0.0 and peaks[0] == 0 and leaf_time[0] == 0.0


def test_star_reach_stop():
    times, peaks, _ = star_runs(10, 2.0, StarState(10, 0, 1), 200, seed=4, level=5)
    # j moves by one, so a replica stops on reaching exactly the level
    assert (peaks <= 5).all() and (peaks == 5).any() and (peaks < 5).any()
    assert (times > 0).all()
    # a replica already at the level stops at once
    times, peaks, _ = star_runs(10, 2.0, StarState(10, 6, 0), 3, seed=4, level=5)
    assert not times.any() and (peaks == 6).all()


def test_star_stop_parameter_validation():
    init = StarState(5, 0, 1)
    for bad in (dict(level=0), dict(level=-2), dict(horizon=0.0),
                dict(horizon=-1.0), dict(horizon=math.nan)):
        with pytest.raises(ValueError):
            star_runs(5, 0.5, init, 10, **bad)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            star_runs(5, lam, init, 10)
    with pytest.raises(ValueError):
        star_runs(5, 0.5, init, -3)
    with pytest.raises(ValueError):
        star_runs(5, 0.5, StarState(10, 8, 1), 10)
    big = sim.STAR_TABLE_MAX_LEAVES + 1
    with pytest.raises(TooLarge):
        star_runs(big, 0.5, StarState(big, 0, 1), 1)


def test_star_quasi_equilibrium():
    # drift fixed point K = lam n / (lam + 1) ~ 57.1 at n=200, lam=0.4
    n, lam = 200, 0.4
    k = lam * n / (lam + 1)
    times, _, leaf_time = star_runs(n, lam, StarState(n, round(k), 1), 3,
                                    seed=21, horizon=100.0)
    assert (times == 100.0).all()
    avgs = leaf_time / times
    assert abs(float(np.mean(avgs)) - k) <= 0.1 * k


def star_generator(n, lam):
    """Generator of the star chain on codes 2j + center; (0, 0) is absorbing."""
    q = np.zeros((2 * (n + 1), 2 * (n + 1)))
    for j in range(n + 1):
        for m in (0, 1):
            i = 2 * j + m
            if i == 0:
                continue
            for rate, target in ((lam * (n - j) * m, i + 2), (j, i - 2),
                                 (m, i - 1), (lam * j * (1 - m), i + 1)):
                if rate:
                    q[i, target] += rate
                    q[i, i] -= rate
    return q


def test_star_horizon_leaf_time_matches_expm():
    # E[int_0^T j ds] = e_x^T (int_0^T exp(sQ) ds) j, from the top-right
    # block of exp([[Q, I], [0, 0]] T)
    n, lam, horizon, init = 5, 0.5, 3.0, StarState(5, 2, 1)
    q = star_generator(n, lam)
    size = q.shape[0]
    block = np.zeros((2 * size, 2 * size))
    block[:size, :size] = q
    block[:size, size:] = np.eye(size)
    integral = expm(block * horizon)[:size, size:]
    exact = float(integral[2 * init.j + init.center] @ (np.arange(size) // 2))
    times, _, leaf_time = star_runs(n, lam, init, 100_000, seed=41, horizon=horizon)
    assert times.max() == horizon and (times == horizon).any()
    se = float(leaf_time.std()) / math.sqrt(leaf_time.size)
    assert abs(float(leaf_time.mean()) - exact) <= 3 * se


def test_star_reach_probability_matches_first_step_solve():
    n, lam, level, init = 5, 0.5, 4, StarState(5, 0, 1)
    q = star_generator(n, lam)
    codes = np.arange(q.shape[0])
    reached = codes // 2 >= level
    transient = ~reached & (codes != 0)
    # on transient states Q h = 0, with h = 1 once j >= level and 0 at (0, 0)
    h = np.linalg.solve(q[np.ix_(transient, transient)],
                        -q[np.ix_(transient, reached)].sum(axis=1))
    exact = float(h[np.flatnonzero(transient) == 2 * init.j + init.center][0])
    assert exact == pytest.approx(0.09761388286334052, rel=1e-12)
    _, peaks, _ = star_runs(n, lam, init, 100_000, seed=42, level=level)
    p = float(np.mean(peaks >= level))
    se = math.sqrt(exact * (1 - exact) / peaks.size)
    assert abs(p - exact) <= 3 * se


def test_star_batch_agrees_with_oracle():
    times, _ = star_batch(5, 0.5, StarState(5, 0, 1), 20_000, seed=17)
    se = float(np.std(times)) / math.sqrt(times.size)
    assert abs(float(np.mean(times)) - 2.276102543290044) <= 3 * se


def test_contact_graph_batch_agrees_with_oracle():
    g = {0: [1], 1: [0]}
    times, visits = contact_graph_batch(g, 1.0, 0, 20_000, seed=23)
    mt, mv = exact_contact_small(g, 1.0, 0)
    se_t = float(np.std(times)) / math.sqrt(times.size)
    se_v = float(np.std(visits)) / math.sqrt(visits.size)
    assert abs(float(np.mean(times)) - mt) <= 3 * se_t
    assert abs(float(np.mean(visits)) - mv) <= 3 * se_v


# ---------------------------------------------------------------------------
# Survival curves


def test_survival_curve_lambda0():
    est = survival_curve(seq(3, 4), 0.0, 50.0, 1000, seed=6)
    assert est.probability == 0.0
    assert est.ci_high < 0.01


def test_survival_curve_checks_the_criterion_before_any_replica(monkeypatch):
    runs = []
    monkeypatch.setattr(sim, "run_replicas", lambda *args: runs.append(args) or [])
    with pytest.raises(ValueError, match="unknown criterion 'loca'"):
        survival_curve(seq(3, 4), 0.3, 10.0, 50, seed=1, criterion="loca")
    assert runs == []


def test_survival_curve_huge_lambda():
    est = survival_curve(seq(3, 4), 10.0, 20.0, 100, seed=7, max_events=1000)
    assert est.probability > 0.95


def test_survival_interval_brackets_probability():
    est = survival_curve(seq(3, 4), 0.4, 10.0, 400, seed=8)
    assert est.ci_low <= est.probability <= est.ci_high
    assert est.replicas == 400


def test_survival_monotone_in_lambda():
    # statistical monotonicity: no later estimate significantly below an
    # earlier one
    pred = lambda2_asymptotic(seq(1, 100))[1]
    ests = [survival_curve(seq(1, 100), f * pred, 50.0, 150, seed=9,
                           criterion="local", max_events=20_000)
            for f in (0.5, 1.0, 1.5, 2.0)]
    for i in range(len(ests)):
        for j in range(i + 1, len(ests)):
            assert ests[j].ci_high >= ests[i].ci_low


def test_brw_survival_against_global_threshold():
    # homogeneous d=4: lambda_g = 0.2
    sup = survival_curve(seq(4,), 0.30, 30.0, 200, seed=10, mode="brw",
                         brw_population_cap=300, max_events=20_000)
    sub = survival_curve(seq(4,), 0.14, 30.0, 200, seed=10, mode="brw",
                         brw_population_cap=300, max_events=20_000)
    assert sup.ci_low > sub.ci_high
    assert sup.probability > 0.2
    assert sub.probability < 0.05


# ---------------------------------------------------------------------------
# Threshold bisection


def reference_lambda2(seq, protocol, root_residue=0):
    """The full-sample rule: every replica of a step runs and p-hat meets the target."""
    def prob(lam, substream):
        return survival_curve(seq, lam, protocol.horizon, protocol.replicas,
                              protocol.seed, protocol.criterion, protocol.mode,
                              root_residue, protocol.max_events,
                              protocol.max_vertices, protocol.brw_population_cap,
                              substream).probability

    target = protocol.target_probability
    if prob(protocol.lam_lo, 0) > target:
        raise BracketFailure("survival already above target at the lower bracket")
    if prob(protocol.lam_hi, 1) < target:
        raise BracketFailure("survival below target at the upper bracket")
    lo, hi, substream = protocol.lam_lo, protocol.lam_hi, 2
    while hi - lo > protocol.tolerance:
        mid = 0.5 * (lo + hi)
        if prob(mid, substream) >= target:
            hi = mid
        else:
            lo = mid
        substream += 1
    return lo, hi


def lambda2_protocol(n, seed, **kw):
    """The benchmark's (1,n) protocol, at a shorter horizon unless overridden."""
    pred = math.sqrt(0.5 * math.log(n) / n)
    base = dict(lam_lo=0.3 * pred, lam_hi=4.0 * pred, horizon=60.0, replicas=30,
                seed=seed, tolerance=0.1 * pred, max_events=5_000)
    base.update(kw)
    return Lambda2Protocol(**base)


HOT = Lambda2Protocol(lam_lo=1.0, lam_hi=2.0, horizon=10.0, replicas=100, seed=1,
                      max_events=500)
COLD = Lambda2Protocol(lam_lo=0.0, lam_hi=0.001, horizon=10.0, replicas=100, seed=1)


def test_estimate_lambda2_bracket_failures():
    proto = Lambda2Protocol(lam_lo=0.5, lam_hi=0.2, horizon=10.0,
                            replicas=100, seed=1)
    with pytest.raises(BracketFailure):
        estimate_lambda2(seq(3, 4), proto)
    with pytest.raises(BracketFailure):
        estimate_lambda2(seq(3, 4), HOT)
    with pytest.raises(BracketFailure):
        estimate_lambda2(seq(3, 4), COLD)


@pytest.mark.parametrize("protocol", [HOT, COLD], ids=["hot", "cold"])
def test_estimate_lambda2_bracket_failure_matches_full_sample(protocol):
    with pytest.raises(BracketFailure) as full:
        reference_lambda2(seq(3, 4), protocol)
    with pytest.raises(BracketFailure) as decided:
        estimate_lambda2(seq(3, 4), protocol)
    assert str(decided.value) == str(full.value)


@pytest.mark.parametrize("degrees,root_residue,make", [
    ((1, 50), 0, lambda s: lambda2_protocol(50, s)),
    ((1, 100), 0, lambda s: lambda2_protocol(100, s)),
    ((1, 100), 1, lambda s: lambda2_protocol(100, s)),
    ((3, 4), 0, lambda s: Lambda2Protocol(lam_lo=0.05, lam_hi=0.9, horizon=10.0,
                                          replicas=40, seed=s, tolerance=0.05,
                                          target_probability=0.2,
                                          criterion="global", max_events=2_000)),
    ((3, 4), 0, lambda s: Lambda2Protocol(lam_lo=0.1, lam_hi=0.6, horizon=20.0,
                                          replicas=40, seed=s, tolerance=0.05,
                                          mode="brw", brw_population_cap=300,
                                          max_events=2_000)),
    # p-hat can equal the target: 2 of 20 is exactly 0.1.  At target 1 with a
    # horizon too short for any event, every replica survives, so each step
    # is settled only by its last replica, and p-hat = 1 does not exceed the
    # target at the lower bracket.
    ((1, 50), 0, lambda s: lambda2_protocol(50, s, replicas=20, target_probability=0.1)),
    ((3, 4), 0, lambda s: Lambda2Protocol(lam_lo=0.1, lam_hi=2.0, horizon=1e-9,
                                          replicas=20, seed=s, tolerance=0.1,
                                          target_probability=1.0,
                                          criterion="global")),
], ids=["1-50-local", "1-100-local", "1-100-residue1", "34-global", "34-brw",
        "1-50-exact-target", "34-target-1"])
def test_estimate_lambda2_matches_full_sample_rule(degrees, root_residue, make):
    for s in (3, 4, 5):
        protocol = make(s)
        assert (estimate_lambda2(seq(*degrees), protocol, root_residue)
                == reference_lambda2(seq(*degrees), protocol, root_residue)), s


def test_estimate_lambda2_pooled_matches_serial(monkeypatch):
    # 10% of 100 replicas: the first batches hold 10 replicas, enough to pool
    # at a threshold of 4.
    protocol = lambda2_protocol(50, 6, replicas=100, target_probability=0.1)
    serial = estimate_lambda2(seq(1, 50), protocol)
    pools = pool_on_two_workers(monkeypatch)
    assert estimate_lambda2(seq(1, 50), protocol) == serial
    assert pools


def test_estimate_lambda2_upper_bracket_stops_early(monkeypatch):
    calls = []

    def counting(config, replica=0, substream=0, audit=False):
        calls.append(substream)
        return run_contact(config, replica, substream, audit)

    monkeypatch.setattr(sim, "run_contact", counting)
    protocol = lambda2_protocol(100, 7)
    estimate_lambda2(seq(1, 100), protocol)
    # substream 1 is the upper-bracket check at 4 * pred
    assert 0 < calls.count(1) < protocol.replicas


@pytest.mark.parametrize("field,values", [
    ("tolerance", [0.0, -1.0, math.nan, math.inf]),
    ("target_probability", [0.0, -0.1, 1.5, math.nan]),
    ("replicas", [0, -3]),
    ("horizon", [0.0, -1.0, math.nan]),
    ("criterion", ["loca"]),
    ("mode", ["sir"]),
])
def test_lambda2_protocol_rejects_bad_field(field, values):
    for value in values:
        with pytest.raises(ValueError):
            Lambda2Protocol(**{"lam_lo": 0.1, "lam_hi": 0.5, "horizon": 10.0,
                               "replicas": 10, "seed": 1, field: value})


@pytest.mark.parametrize("field,value", [
    ("lam_lo", -0.1), ("lam_lo", math.nan), ("lam_hi", math.inf), ("lam_hi", math.nan),
])
def test_lambda2_protocol_rejects_a_bad_bracket(field, value):
    with pytest.raises(ValueError, match="lambda brackets must be finite and >= 0"):
        Lambda2Protocol(**{"lam_lo": 0.1, "lam_hi": 0.5, "horizon": 10.0,
                           "replicas": 10, "seed": 1, field: value})


@pytest.mark.parametrize("field", ["max_events", "max_vertices", "brw_population_cap"])
def test_lambda2_protocol_rejects_a_cap_below_one(field):
    with pytest.raises(ValueError, match="caps must be >= 1"):
        Lambda2Protocol(lam_lo=0.1, lam_hi=0.5, horizon=10.0, replicas=10, seed=1,
                        **{field: 0})


@pytest.mark.parametrize("field,value", [
    ("replicas", 2.5), ("seed", 1.5), ("max_events", 100.0),
    ("max_vertices", 1e3), ("brw_population_cap", 50.5),
])
def test_lambda2_protocol_rejects_a_non_integer_field(field, value):
    with pytest.raises(ValueError, match="must be integers"):
        Lambda2Protocol(**{"lam_lo": 0.1, "lam_hi": 0.5, "horizon": 10.0,
                           "replicas": 10, "seed": 1, field: value})


def test_estimate_lambda2_small_instance():
    proto = Lambda2Protocol(lam_lo=0.05, lam_hi=0.9, horizon=20.0,
                            replicas=100, seed=12, tolerance=0.1,
                            max_events=3000)
    lo, hi = estimate_lambda2(seq(3, 4), proto)
    assert 0.05 <= lo < hi <= 0.9
    assert hi - lo <= 0.1
    # deterministic in the protocol seed
    assert estimate_lambda2(seq(3, 4), proto) == (lo, hi)


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_interval():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.01
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    assert lo + hi == pytest.approx(1.0, abs=1e-12)
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        config(horizon=0.0)
    with pytest.raises(ValueError):
        config(replicas=0)
    with pytest.raises(ValueError):
        config(mode="sir")
    for cap in (0, -3):   # a cap of 0 truncated every first birth
        with pytest.raises(ValueError, match="caps must be >= 1"):
            config(mode="brw", brw_population_cap=cap)


@pytest.mark.parametrize("field,value", [
    ("root_residue", 1.5), ("replicas", 2.5), ("seed", 1.5), ("max_events", 100.0),
    ("max_vertices", 1e3), ("brw_population_cap", 50.5),
])
def test_config_rejects_a_non_integer_field(field, value):
    with pytest.raises(ValueError, match="must be integers"):
        config(**{field: value})


def test_config_takes_numpy_integers():
    ints = dict(root_residue=1, seed=21, replicas=2, max_events=3000)
    numpy_ints = {key: np.int64(value) for key, value in ints.items()}
    assert run_replicas(config(**numpy_ints)) == run_replicas(config(**ints))


def test_config_rejects_negative_lambda():
    with pytest.raises(ValueError):
        config(lam=-0.1)


def test_config_rejects_nonfinite_lambda():
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError):
            config(lam=lam)


def test_config_rejects_nan_horizon():
    with pytest.raises(ValueError):
        config(horizon=math.nan)
