"""Hooks the benchmark puts around pertree's public functions.

Two kinds of hook, both installed from the benchmark's own files (nothing
under ``src/`` is touched):

* ``Counters``: cheap counts taken at a layer boundary in every run.
  ``sim.run_replicas`` sums ``SimOutcome.events`` once per survival point,
  and for the batch engines a counting generator sums the size of every
  ``standard_exponential`` draw, which is one per chain transition.
* ``Tracer``: spans for the traced run.  Each span records name, start,
  end and parent; spans stay in memory and are written out when the run
  ends.  Calls into ``TreeArena.materialize_children``/``materialize_parent``
  are summed into one aggregated ``tree.materialize`` span per enclosing
  span (one per replica), so the trace holds no span per event.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from pertree import bounds, cli, oracle, sim, tree, walks

_perf = time.perf_counter


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _CountingGenerator(np.random.Generator):
    """Generator sharing a stream's bit generator; counts exponential draws."""

    def __init__(self, bit_generator, counters: "Counters"):
        super().__init__(bit_generator)
        self._counters = counters

    def standard_exponential(self, size=None, *args, **kwargs):
        self._counters.events += 1 if size is None else int(np.prod(size))
        return super().standard_exponential(size, *args, **kwargs)


class Counters:
    """Event counts for ``events_per_s``, taken in traced and untraced runs."""

    def __init__(self):
        self.events = 0
        self._patches = _Patches()

    def install(self, batch_engines: bool) -> None:
        def count_outcomes(run_replicas):
            def wrapper(*args, **kwargs):
                outcomes = run_replicas(*args, **kwargs)
                self.events += sum(o.events for o in outcomes)
                return outcomes
            return wrapper

        self._patches.replace(sim, "run_replicas", count_outcomes)
        if batch_engines:
            # Only the vectorized engines draw through sim.stream in the
            # exact-check workload; the tree engines' events come from
            # their outcomes instead.
            def counting_stream(stream):
                def wrapper(*args, **kwargs):
                    return _CountingGenerator(stream(*args, **kwargs).bit_generator, self)
                return wrapper

            self._patches.replace(sim, "stream", counting_stream)

    def uninstall(self) -> None:
        self._patches.restore()


class Tracer:
    """In-memory spans around each pertree layer boundary."""

    def __init__(self):
        # (id, name, start, end, parent, attrs)
        self.spans: list[tuple[int, str, float, float, int | None, dict]] = []
        # Open frames: [span id, name, start, tree seconds, tree calls, arenas]
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches = _Patches()

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> list:
        frame = [next(self._ids), name, _perf(), 0.0, 0, []]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, attrs: dict | None = None) -> None:
        attrs = dict(attrs or {})
        arenas = frame[5]
        if arenas:
            attrs["vertices"] = sum(len(a) for a in arenas)
            attrs["neighbor_ids"] = sum(len(a._bench_neighbor_ids) for a in arenas)
            # Free the arenas inside the span, where an untraced run frees them.
            arenas.clear()
        end = _perf()
        popped = self._stack.pop()
        assert popped is frame, "spans must close in LIFO order"
        sid, name, start, tree_s, tree_calls, _ = frame
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, name, start, end, parent, attrs))
        if tree_calls:
            # Aggregated child: summed duration laid out from the parent's start.
            self.spans.append((next(self._ids), "tree.materialize", start,
                               start + tree_s, sid, {"calls": tree_calls}))

    def span(self, name: str, fn, describe=None):
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(frame, {"error": type(exc).__name__})
                raise
            self.close(frame, describe(result) if describe else None)
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        p = self._patches
        wrap = self.span

        def replica(outcome):
            return {"events": outcome.events, "peak": outcome.peak_infected,
                    "reason": outcome.truncation_reason,
                    "root_visits": len(outcome.root_visit_times)}

        p.replace(cli, "main", lambda f: wrap("cli.main", f))
        for module in (cli, sim):
            p.replace(module, "survival_curve", lambda f: wrap("sim.survival_point", f))
            p.replace(module, "run_replicas", lambda f: wrap("sim.run_replicas", f))
        p.replace(sim, "run_contact", lambda f: wrap("sim.replica", f, replica))
        p.replace(sim, "run_brw", lambda f: wrap("sim.replica", f, replica))
        p.replace(sim, "estimate_lambda2", lambda f: wrap("sim.bisect", f))
        p.replace(sim, "star_batch", lambda f: wrap("sim.star_batch", f))
        p.replace(sim, "contact_graph_batch", lambda f: wrap("sim.graph_batch", f))
        p.replace(sim, "stream", lambda f: wrap("rng.stream", f))
        p.replace(oracle, "star_mean_absorption", lambda f: wrap("oracle.star_solve", f))
        p.replace(oracle, "exact_contact_small", lambda f: wrap("oracle.subset_solve", f))
        p.replace(oracle, "enumerate_closed_walks", lambda f: wrap("oracle.enum", f))
        p.replace(walks, "m0_estimates", lambda f: wrap("walks.dp", f))
        p.replace(bounds, "bounds_report", lambda f: wrap("bounds.report", f))

        stack = self._stack

        def arena_init(init):
            def wrapper(arena, *args, **kwargs):
                init(arena, *args, **kwargs)
                arena._bench_neighbor_ids = set()
                stack[-1][5].append(arena)
            return wrapper

        def timed(method):
            def wrapper(arena, vid):
                start = _perf()
                try:
                    return method(arena, vid)
                finally:
                    frame = stack[-1]
                    frame[3] += _perf() - start
                    frame[4] += 1
            return wrapper

        def neighbor(method):
            def wrapper(arena, vid, slot):
                w = method(arena, vid, slot)
                arena._bench_neighbor_ids.add(w)
                return w
            return wrapper

        p.replace(tree.TreeArena, "__init__", arena_init)
        p.replace(tree.TreeArena, "materialize_children", timed)
        p.replace(tree.TreeArena, "materialize_parent", timed)
        p.replace(tree.TreeArena, "neighbor", neighbor)

    def uninstall(self) -> None:
        self._patches.restore()

    def to_json(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, **attrs}
                for sid, name, start, end, parent, attrs in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans


PEAK_BUCKETS = (("peak_lt_100", 0, 100), ("peak_100_1k", 100, 1_000),
                ("peak_1k_10k", 1_000, 10_000), ("peak_ge_10k", 10_000, None))
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def replica_tail(durations_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    n = len(durations_ms)
    if not n:
        return 0.0, 0.0
    ordered = sorted(durations_ms)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            index = min(n - 1, int(pct / 100.0 * n))
            return ordered[index], pct
    return ordered[-1], 100.0


def layer_metrics(spans, rounds: int, overhead_frac: float,
                  pool2_speedup: float, batch_misses_3se: int) -> dict[str, float]:
    """Per-layer numbers; extensive ones are per round (one answer)."""
    child_s: dict[int, float] = {}
    points_under: dict[int, int] = {}
    for sid, name, start, end, parent, _ in spans:
        if parent is None:
            continue
        child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        if name == "sim.survival_point":
            points_under[parent] = points_under.get(parent, 0) + 1

    def total(name, self_time=False):
        acc = 0.0
        for sid, n, start, end, _, _ in spans:
            if n == name:
                acc += (end - start) - (child_s.get(sid, 0.0) if self_time else 0.0)
        return acc

    # A replica that raised has no outcome to describe.
    replicas = [s for s in spans if s[1] == "sim.replica" and "events" in s[5]]
    events = sum(s[5]["events"] for s in replicas)
    bucket_self = {b[0]: [0.0, 0] for b in PEAK_BUCKETS}
    reasons = {"event_cap": 0, "vertex_cap": 0, "population_cap": 0}
    durations_ms = []
    sim_self = 0.0
    for sid, _, start, end, _, attrs in replicas:
        own = (end - start) - child_s.get(sid, 0.0)
        sim_self += own
        durations_ms.append(1e3 * (end - start))
        for bname, lo, hi in PEAK_BUCKETS:
            if attrs["peak"] >= lo and (hi is None or attrs["peak"] < hi):
                bucket_self[bname][0] += own
                bucket_self[bname][1] += attrs["events"]
        if attrs["reason"] is not None:
            reasons[attrs["reason"]] += 1
    tail, tail_pct = replica_tail(durations_ms)

    points = [end - start for _, name, start, end, _, _ in spans
              if name == "sim.survival_point"]
    bisect_steps = sum(max(0, points_under.get(sid, 0) - 2)
                       for sid, name, *_ in spans if name == "sim.bisect")
    vertices = sum(s[5].get("vertices", 0) for s in spans)
    neighbor_ids = sum(s[5].get("neighbor_ids", 0) for s in spans)
    tree_s = total("tree.materialize")
    oracle_failures = sum(1 for s in spans
                          if s[1].startswith("oracle.") and "error" in s[5])
    k = max(rounds, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "cli.self_s": total("cli.main", self_time=True) / k,
        "sim.events": events / k,
        "sim.replicas": len(replicas) / k,
        "sim.self_s": sim_self / k,
    }
    for bname, (own, ev) in bucket_self.items():
        metrics[f"sim.ns_per_event.{bname}"] = ratio(1e9 * own, ev)
    metrics.update({
        "sim.replica_ms.p50": statistics.median(durations_ms) if durations_ms else 0.0,
        "sim.replica_ms.tail": tail,
        "sim.replica_ms.tail_pct": tail_pct,
        "sim.replica_ms.samples": float(len(durations_ms)),
        # run_replicas' only children are the replica spans.
        "sim.orchestration_s": total("sim.run_replicas", self_time=True) / k,
        "sim.survival_point_s.max": max(points, default=0.0),
        "sim.survival_point_s.count": len(points) / k,
        "sim.bisect.steps": bisect_steps / k,
        "sim.truncated.event_cap": reasons["event_cap"] / k,
        "sim.truncated.vertex_cap": reasons["vertex_cap"] / k,
        "sim.truncated.population_cap": reasons["population_cap"] / k,
        "sim.untruncated_frac": ratio(len(replicas) - sum(reasons.values()),
                                      len(replicas)),
        "sim.root_visits_stored": sum(s[5]["root_visits"] for s in replicas) / k,
        "sim.star_batch.self_s": total("sim.star_batch", self_time=True) / k,
        "sim.graph_batch.self_s": total("sim.graph_batch", self_time=True) / k,
        # Per run, not per round: a count of rare chance events.
        "sim.batch_misses_3se": float(batch_misses_3se),
        "sim.pool2_speedup": pool2_speedup,
        "tree.vertices": vertices / k,
        "tree.vertices_per_event": ratio(vertices, events),
        "tree.useful_frac": ratio(neighbor_ids, vertices),
        "tree.self_s": tree_s / k,
        "tree.vertices_per_s": ratio(vertices, tree_s),
        "rng.streams": sum(1 for s in spans if s[1] == "rng.stream") / k,
        "rng.self_s": total("rng.stream") / k,
        "walks.dp_s": total("walks.dp") / k,
        "oracle.star_solve_s": total("oracle.star_solve") / k,
        "oracle.subset_solve_s": total("oracle.subset_solve") / k,
        "oracle.enum_s": total("oracle.enum", self_time=True) / k,
        "oracle.failures": oracle_failures / k,
        "bounds.report_s": total("bounds.report") / k,
        "trace.overhead_frac": overhead_frac,
    })
    return metrics
