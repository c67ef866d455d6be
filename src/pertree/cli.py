"""Command-line interface: bounds, tables, predictions, walks, simulations, oracles.

One executable with subcommands.  Every option has one default, on its
flag; a JSON config file (``--config``) replaces those defaults, so an
explicit flag still wins, and either may give a required parameter.
Every output file is paired with a manifest recording the full parameter
set, so any run can be reproduced exactly.
Exit codes: 0 success, 1 usage, 2 numerical failure, 3 capacity/limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__
from .bounds import (
    bounds_report,
    lambda1_upper,
    lambda2_asymptotic,
    lambda_ell_lower_period3,
    lambda_g,
)
from .degrees import PeriodicDegreeSequence
from .errors import CapacityError, NumericalError
from .oracle import enumerate_closed_walks, exact_contact_small, star_mean_absorption
from .sim import (
    DEFAULT_BRW_POP_CAP,
    DEFAULT_MAX_EVENTS,
    DEFAULT_MAX_VERTICES,
    SimConfig,
    StarState,
    run_replicas,
    star_runs,
    survival_curve,
)
from .walks import m0_estimates

PERIOD3_TABLE_ROWS = [(2, 3, 4), (3, 4, 5), (4, 6, 8), (6, 8, 10)]
GRID_MAX_STEPS = 10_000
# A grid step below this share of max(1, |start|, |stop|) may not move the
# running value past float rounding, and the grid would never end.
GRID_MIN_STEP = 1e-9

USAGE_EXIT = 1
NUMERICAL_EXIT = 2
CAPACITY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """A subcommand's options by dest and by flag without dashes (``lam``, ``lambda``)."""
    return {name: a for a in parser._actions if a.dest != "help"
            for name in (a.dest, *(f.lstrip("-") for f in a.option_strings))}


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict:
    """The JSON config's values by dest, typed and checked as on the command line.

    A key is an option's dest or flag without dashes; a null value is skipped.
    """
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError(f"config: expected a JSON object, got {type(loaded).__name__}")
    options = _options(parser)
    values = {}
    for key, value in loaded.items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"config: unknown key {key!r}")
        if value is None:
            continue
        try:
            value = (action.type or str)(str(value))
        except ValueError as exc:
            raise ValueError(f"config {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {key!r}: {value!r} is not one of "
                             + ", ".join(map(str, action.choices)))
        values[action.dest] = value
    return values


def _require(args: argparse.Namespace, *attrs: str) -> None:
    options = _options(args._parser)
    missing = [options[a].option_strings[0] for a in attrs
               if getattr(args, a, None) is None]
    if missing:
        raise ValueError("missing required parameters: " + ", ".join(missing))


def _emit(text: str, args: argparse.Namespace) -> None:
    """Print ``text``, or write it to ``--out`` with a manifest of the run beside it."""
    if not args.out:
        sys.stdout.write(text)
        return
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    params = {k: v for k, v in vars(args).items()
              if k != "func" and not k.startswith("_")}
    manifest = {"subcommand": args.subcommand, "parameters": params,
                "seed": getattr(args, "seed", None), "version": __version__,
                "started": args._started, "finished": _now(), "outputs": [args.out]}
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_grid(text: str) -> list[float]:
    """start:stop:step grid, endpoint included up to float tolerance."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: expected start:stop:step") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and step > 0):
        raise ValueError(f"bad grid {text!r}: needs finite bounds and a step > 0")
    if stop < start:
        raise ValueError(f"bad grid {text!r}: stop is below start")
    if step < GRID_MIN_STEP * max(1.0, abs(start), abs(stop)):
        raise ValueError(f"bad grid {text!r}: step below {GRID_MIN_STEP:g} of the grid's scale")
    if (stop - start) / step > GRID_MAX_STEPS:
        raise ValueError(f"bad grid {text!r}: more than {GRID_MAX_STEPS} steps")
    grid = []
    value = start
    while value <= stop + 1e-12 * max(1.0, abs(stop)):
        grid.append(round(value, 12))
        value += step
    return grid


# ---------------------------------------------------------------------------
# Subcommands


def cmd_bounds(args) -> int:
    seq = PeriodicDegreeSequence.parse(args.degrees)
    report = bounds_report(seq)
    lines = [f"{'quantity':<18} value"]
    table = [("lambda_g", report.lambda_g),
             ("lambda1_upper", report.lambda1_upper),
             ("lambda_ell_lower", report.lambda_ell_lower)]
    if report.x0 is not None:
        table.append(("x0", report.x0))
    if report.lambda2_prediction is not None:
        table.append(("c", report.lambda2_asymptotic_c))
        table.append(("prediction", report.lambda2_prediction))
    for name, value in table:
        shown = f"{value:.6f}" if value is not None else "unavailable"
        lines.append(f"{name:<18} {shown}")
    for note in report.notes:
        lines.append(f"note: {note}")
    text = "\n".join(lines) + "\n" + report.to_json() + "\n"
    _emit(text, args)
    return 0


def cmd_table(args) -> int:
    rows = []
    if args.which == "period3_x0":
        header = ["a", "b", "c", "x0", "lambda_ell_lower"]
        for a, b, c in PERIOD3_TABLE_ROWS:
            x0, bound = lambda_ell_lower_period3(a, b, c)
            rows.append([a, b, c, f"{x0:.3f}", f"{bound:.4f}"])
    else:
        # lambda_g here is 1/(spectral radius of the residue matrix); the
        # printed historical values for this column disagree with that
        # definition, so the column is annotated rather than matched.
        header = ["a", "b", "c", "lambda_g_spectral", "lambda1_upper"]
        for a, b, c in PERIOD3_TABLE_ROWS:
            seq = PeriodicDegreeSequence((a, b, c))
            rows.append([a, b, c, f"{lambda_g(seq):.4f}", f"{lambda1_upper(seq):.4f}"])
    _emit(_csv_text(header, rows), args)
    return 0


def cmd_predict(args) -> int:
    parts = args.degrees.split(",")
    if "n" not in parts:
        raise ValueError(f"--degrees {args.degrees!r} has no 'n' slot, e.g. 1,n")
    n_values = _parse_grid(args.n_range)
    if not all(v.is_integer() for v in n_values):
        raise ValueError(f"--n-range {args.n_range!r} has a value of n that is not an integer")
    rows = []
    for n in map(int, n_values):
        degs = tuple(n if p == "n" else int(p) for p in parts)
        c, pred = lambda2_asymptotic(PeriodicDegreeSequence(degs), n_override=n)
        rows.append([n, repr(c), repr(pred)])
    _emit(_csv_text(["n", "c", "prediction"], rows), args)
    return 0


def cmd_walks(args) -> int:
    seq = PeriodicDegreeSequence.parse(args.degrees)
    table = m0_estimates(seq, args.nmax, root_residue=args.residue)
    rows = []
    for n, (count, root, rmax) in enumerate(
            zip(table.counts, table.roots, table.running_max()), start=1):
        rows.append([n, str(count), repr(root), repr(rmax)])
    _emit(_csv_text(["n", "count", "root", "running_max"], rows), args)
    return 0


def cmd_simulate(args) -> int:
    seq = PeriodicDegreeSequence.parse(args.degrees)
    config = SimConfig(seq, args.lam, **_run_options(args))
    rows = []
    survived_global = 0
    for i, outcome in enumerate(run_replicas(config)):
        if outcome.survived("global", args.horizon):
            survived_global += 1
        rows.append([
            i,
            int(outcome.extinct),
            "" if outcome.extinction_time is None else repr(outcome.extinction_time),
            len(outcome.root_visit_times),
            outcome.peak_infected,
            outcome.events,
            int(outcome.truncated),
        ])
    header = ["seed_index", "extinct", "extinction_time", "root_visits",
              "peak", "events", "truncated"]
    summary = {"degrees": str(seq), "lambda": args.lam, "horizon": args.horizon,
               "replicas": args.replicas, "seed": args.seed, "mode": args.mode,
               "survived_global": survived_global}
    _emit(_csv_text(header, rows), args)
    if args.out:
        with open(args.out + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def cmd_star(args) -> int:
    if args.replicas < 1:
        raise ValueError("replicas must be >= 1")
    for dest, stop in (("level", "reach"), ("horizon", "horizon")):
        if getattr(args, dest) is not None and args.stop != stop:
            raise ValueError(f"--{dest} needs --stop {stop}")
    if args.stop == "reach" and args.level is None:
        raise ValueError("stop='reach' needs a level")
    if args.stop == "horizon" and not (args.horizon is not None and args.horizon > 0):
        raise ValueError("stop='horizon' needs a positive horizon")
    horizon = math.inf if args.horizon is None else args.horizon
    init = StarState(args.n, args.j, args.center)
    runs = star_runs(args.n, args.lam, init, args.replicas, args.seed, args.level, horizon)
    rows = []
    for i, (t, peak, area) in enumerate(zip(*(a.tolist() for a in runs))):
        hit = ("horizon" if t == horizon else
               "reach" if args.level is not None and peak >= args.level else "absorb")
        rows.append([i, hit, repr(t), peak, repr(area / t if t else 0.0)])
    _emit(_csv_text(["replica", "hit", "time", "peak", "time_avg_leaves"], rows),
          args)
    return 0


def cmd_sweep(args) -> int:
    seq = PeriodicDegreeSequence.parse(args.degrees)
    rows = []
    for lam in _parse_grid(args.lambda_grid):
        est = survival_curve(seq, lam, criterion=args.criterion,
                             **_run_options(args))
        rows.append([repr(est.lam), repr(est.probability), repr(est.ci_low),
                     repr(est.ci_high), est.replicas])
    header = ["lambda", "probability", "ci_low", "ci_high", "replicas"]
    _emit(_csv_text(header, rows), args)
    return 0


def cmd_oracle(args) -> int:
    if (args.star_n, args.edges, args.enumerate_degrees).count(None) != 2:
        raise ValueError("oracle needs exactly one of --star-n, --edges or --enumerate-degrees")
    if args.star_n is not None:
        _require(args, "lam")
        solve = star_mean_absorption(args.star_n, args.lam)
        payload = {"n": args.star_n, "lambda": args.lam,
                   "expected_time_from_center": solve.expected_time[(0, 1)],
                   "solve_residual": solve.solve_residual}
    elif args.edges is not None:
        _require(args, "lam")
        neighbors: dict[int, list[int]] = {}
        for part in args.edges.split(","):
            try:
                a, b = (int(x) for x in part.split("-"))
            except ValueError:
                raise ValueError(f"edge {part!r} is not of the form v-w") from None
            neighbors.setdefault(a, []).append(b)
            neighbors.setdefault(b, []).append(a)
        mean_time, mean_visits = exact_contact_small(neighbors, args.lam, args.root)
        payload = {"edges": args.edges, "lambda": args.lam, "root": args.root,
                   "mean_extinction_time": mean_time,
                   "mean_root_visits": mean_visits}
    else:
        seq = PeriodicDegreeSequence.parse(args.enumerate_degrees)
        count = enumerate_closed_walks(seq, args.residue, args.two_n)
        payload = {"degrees": str(seq), "residue": args.residue,
                   "two_n": args.two_n, "count": count}
    _emit(json.dumps(payload, indent=2) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


RUN_OPTIONS = ("horizon", "replicas", "seed", "mode", "root_residue",
               "max_events", "max_vertices", "brw_population_cap")


def _add_run_flags(sub, *, replicas: int) -> None:
    """The flags of ``RUN_OPTIONS``, shared by simulate and sweep."""
    sub.add_argument("--horizon", type=float)
    sub.add_argument("--replicas", type=int, default=replicas)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--mode", choices=["contact", "brw"], default="contact")
    sub.add_argument("--root-residue", type=int, default=0)
    sub.add_argument("--max-events", type=int, default=DEFAULT_MAX_EVENTS)
    sub.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    sub.add_argument("--brw-population-cap", type=int, default=DEFAULT_BRW_POP_CAP)


def _run_options(args) -> dict:
    """The shared run flags as keywords of ``SimConfig`` and ``survival_curve``."""
    return {name: getattr(args, name) for name in RUN_OPTIONS}


def _add_common(sub, *required: str) -> None:
    """``--out`` and ``--config``, and the dests ``main`` requires after the config."""
    sub.add_argument("--out", default=None, help="write output (and a manifest) here")
    sub.add_argument("--config", default=None,
                     help="JSON file of option defaults; flags win")
    sub.set_defaults(_parser=sub, _required=required)


def build_parser() -> _Parser:
    parser = _Parser(prog="pertree")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("bounds", help="closed-form bounds")
    p.add_argument("--degrees")
    _add_common(p, "degrees")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("table", help="regenerate the period-3 reference tables")
    p.add_argument("--which", choices=["period3_x0", "period3_lambda1"])
    _add_common(p, "which")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("predict", help="asymptotic lambda_2 predictions")
    p.add_argument("--degrees",
                   help="comma list with literal 'n' as the dominant slot, e.g. 1,n")
    p.add_argument("--n-range", help="start:stop:step")
    _add_common(p, "degrees", "n_range")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("walks", help="closed-walk counts and growth roots")
    p.add_argument("--degrees")
    p.add_argument("--nmax", type=int)
    p.add_argument("--residue", type=int, default=0)
    _add_common(p, "degrees", "nmax")
    p.set_defaults(func=cmd_walks)

    p = subs.add_parser("simulate", help="per-replica simulation records")
    p.add_argument("--degrees")
    p.add_argument("--lambda", dest="lam", type=float)
    _add_run_flags(p, replicas=1)
    _add_common(p, "degrees", "lam", "horizon")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("star", help="star-graph chain runs")
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--center", type=int, default=1)
    p.add_argument("--stop", choices=["absorb", "reach", "horizon"],
                   default="absorb")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, "n", "lam")
    p.set_defaults(func=cmd_star)

    p = subs.add_parser("sweep", help="survival curve over a lambda grid")
    p.add_argument("--degrees")
    p.add_argument("--lambda-grid", help="start:stop:step")
    _add_run_flags(p, replicas=100)
    p.add_argument("--criterion", choices=["global", "local"], default="global")
    _add_common(p, "degrees", "lambda_grid", "horizon")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("oracle", help="exact small-instance solves")
    p.add_argument("--star-n", type=int, default=None)
    p.add_argument("--edges", default=None, help="comma list of v-w pairs")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--enumerate-degrees", default=None)
    p.add_argument("--residue", type=int, default=0)
    p.add_argument("--two-n", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The config's values become the subcommand's defaults, so a
            # second parse keeps every flag given on the command line.
            args._parser.set_defaults(**_read_config(args._parser, args.config))
            args = parser.parse_args(argv)
        _require(args, *args._required)
        args._started = _now()
        return args.func(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return CAPACITY_EXIT
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return NUMERICAL_EXIT
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
