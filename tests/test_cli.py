"""End-to-end CLI behavior: output schemas, exit codes, manifests, determinism."""

import argparse
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pertree import cli, errors, sim
from pertree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bounds_period2(capsys):
    code, out = run(capsys, "bounds", "--degrees", "3,4")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["lambda_g"] == pytest.approx(0.223607, abs=1e-6)
    assert payload["lambda1_upper"] == pytest.approx(0.405827, abs=1e-6)
    assert payload["lambda_ell_lower"] == pytest.approx(0.267949, abs=1e-6)


def test_bounds_period3(capsys):
    code, out = run(capsys, "bounds", "--degrees", "2,3,4")
    payload = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert payload["x0"] == pytest.approx(11.847, abs=1e-3)
    assert payload["lambda_ell_lower"] == pytest.approx(0.2905, abs=1e-4)
    assert payload["lambda1_upper"] == pytest.approx(0.5306, abs=1e-4)


def test_bounds_period4_has_a_local_bound(capsys):
    code, out = run(capsys, "bounds", "--degrees", "2,3,4,5")
    assert code == 0
    assert "lambda_ell_lower   0.268012\n" in out
    assert "note:" not in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["x0"] is None and payload["notes"] == []


def test_bounds_subcritical_note(capsys):
    code, out = run(capsys, "bounds", "--degrees", "1,1")
    assert code == 0
    assert "unavailable" in out
    assert "subcritical" in out


def test_table_x0(capsys):
    code, out = run(capsys, "table", "--which", "period3_x0")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "a,b,c,x0,lambda_ell_lower"
    assert lines[1] == "2,3,4,11.847,0.2905"
    assert lines[4] == "6,8,10,31.774,0.1774"


def test_table_lambda1(capsys):
    code, out = run(capsys, "table", "--which", "period3_lambda1")
    lines = out.strip().splitlines()
    assert code == 0
    # the lambda_g column carries the spectral definition, hence the
    # annotated header name
    assert lines[0] == "a,b,c,lambda_g_spectral,lambda1_upper"
    values = [float(line.split(",")[4]) for line in lines[1:]]
    for got, ref in zip(values, (0.5306, 0.3430, 0.2097, 0.1464)):
        assert got == pytest.approx(ref, abs=1e-4)


def test_predict(capsys):
    code, out = run(capsys, "predict", "--degrees", "1,n",
                    "--n-range", "100:200:100")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,c,prediction"
    assert all(row.split(",")[1] == "0.5" for row in lines[1:])


def test_predict_k_slots(capsys):
    code, out = run(capsys, "predict", "--degrees", "1,1,1,n",
                    "--n-range", "1000:1000:1")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[1] == "1.5"


def test_walks_csv(capsys):
    code, out = run(capsys, "walks", "--degrees", "3,4", "--nmax", "10")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,count,root,running_max"
    assert len(lines) == 11
    rmax = [float(line.split(",")[3]) for line in lines[1:]]
    assert rmax == sorted(rmax)


def test_oracle_star(capsys):
    code, out = run(capsys, "oracle", "--star-n", "10", "--lambda", "1.0")
    payload = json.loads(out)
    assert code == 0
    assert payload["expected_time_from_center"] == pytest.approx(
        14.81880649062323, rel=1e-9)


def test_oracle_star_large_times(capsys):
    code, out = run(capsys, "oracle", "--star-n", "1000", "--lambda", "1.0")
    payload = json.loads(out)
    assert code == 0
    assert payload["expected_time_from_center"] == pytest.approx(
        1.2332169934876e124, rel=1e-12)
    assert payload["solve_residual"] < 1e-8


def test_oracle_star_overflow_is_a_numerical_error(capsys):
    assert main(["oracle", "--star-n", "2000", "--lambda", "5.0"]) == 2
    assert "numerical error: star times overflow" in capsys.readouterr().err


def test_oracle_edges(capsys):
    code, out = run(capsys, "oracle", "--edges", "0-1", "--lambda", "1.0")
    payload = json.loads(out)
    assert code == 0
    assert payload["mean_extinction_time"] == pytest.approx(1.5, rel=1e-9)
    assert payload["mean_root_visits"] == pytest.approx(0.25, rel=1e-9)


def test_oracle_enumerate(capsys):
    code, out = run(capsys, "oracle", "--enumerate-degrees", "3,4",
                    "--two-n", "6")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 304


def test_simulate_stdout(capsys):
    code, out = run(capsys, "simulate", "--degrees", "3,4", "--lambda", "0",
                    "--horizon", "10", "--replicas", "5", "--seed", "7")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "seed_index,extinct,extinction_time,root_visits,peak,events,truncated"
    assert len(lines) == 7     # header + 5 rows + summary json
    summary = json.loads(lines[-1])
    assert summary["survived_global"] == 0


def test_simulate_deterministic_files(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--degrees", "3,4", "--lambda", "0.3", "--horizon",
            "10", "--replicas", "50", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["parameters"]["lam"] == 0.3
    assert str(out1) in manifest["outputs"]
    summary = json.loads((tmp_path / "a.csv.summary.json").read_text())
    assert summary["replicas"] == 50


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--degrees", "3,4", "--lambda-grid",
                    "0.1:0.3:0.1", "--horizon", "5", "--replicas", "100",
                    "--seed", "3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "lambda,probability,ci_low,ci_high,replicas"
    assert len(lines) == 4


def test_star_csv(capsys):
    code, out = run(capsys, "star", "--n", "5", "--lambda", "0.5",
                    "--replicas", "10", "--seed", "1")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "replica,hit,time,peak,time_avg_leaves"
    assert len(lines) == 11
    assert all(line.split(",")[1] == "absorb" for line in lines[1:])


@pytest.mark.parametrize("stop,extra,hits", [
    ("absorb", [], {"absorb"}),
    ("reach", ["--level", "4"], {"reach", "absorb"}),
    ("horizon", ["--horizon", "1.0", "--j", "2"], {"horizon", "absorb"}),
])
def test_star_stop_rules(capsys, stop, extra, hits):
    code, out = run(capsys, "star", "--n", "5", "--lambda", "0.5", "--stop", stop,
                    "--replicas", "200", "--seed", "2", *extra)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "replica,hit,time,peak,time_avg_leaves"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(200))
    assert {r[1] for r in rows} == hits
    for _, hit, t, peak, avg in rows:
        assert 0.0 <= float(avg) <= 5.0
        if hit == "reach":
            assert int(peak) >= 4
        if stop == "horizon":
            assert float(t) <= 1.0 and (hit == "horizon") == (float(t) == 1.0)
    code, again = run(capsys, "star", "--n", "5", "--lambda", "0.5", "--stop", stop,
                      "--replicas", "200", "--seed", "2", *extra)
    assert again == out


def test_star_bad_input_is_a_usage_error(capsys):
    base = ["star", "--n", "5"]
    for argv, message in (
            (["--lambda", "-1"], "lambda must be finite and >= 0"),
            (["--lambda", "nan"], "lambda must be finite and >= 0"),
            (["--lambda", "inf"], "lambda must be finite and >= 0"),
            (["--lambda", "0.5", "--replicas", "-3"], "replicas must be >= 1"),
            (["--lambda", "0.5", "--replicas", "0"], "replicas must be >= 1"),
            (["--lambda", "0.5", "--stop", "reach", "--level", "-2"], "level must be >= 1"),
            (["--lambda", "0.5", "--stop", "reach"], "stop='reach' needs a level"),
            (["--lambda", "0.5", "--stop", "horizon"],
             "stop='horizon' needs a positive horizon")):
        assert main(base + argv) == 1, argv
        captured = capsys.readouterr()
        assert f"usage error: {message}" in captured.err, argv
        assert captured.out == "", argv


def test_oracle_takes_one_mode(capsys):
    modes = {"--star-n": "3", "--edges": "0-1", "--enumerate-degrees": "3,4"}
    for given in (["--star-n", "--edges"], ["--star-n", "--enumerate-degrees"],
                  ["--edges", "--enumerate-degrees"], list(modes)):
        argv = [x for flag in given for x in (flag, modes[flag])]
        assert main(["oracle", *argv, "--lambda", "1.0"]) == 1, given
        captured = capsys.readouterr()
        assert ("usage error: oracle needs exactly one of --star-n, --edges or "
                "--enumerate-degrees\n") in captured.err, given
        assert captured.out == "", given


def test_star_level_and_horizon_need_their_stop(capsys):
    base = ["star", "--n", "5", "--lambda", "0.5"]
    for argv, message in (
            (["--level", "3"], "--level needs --stop reach"),
            (["--level", "3", "--horizon", "0.5"], "--level needs --stop reach"),
            (["--stop", "horizon", "--horizon", "1", "--level", "3"],
             "--level needs --stop reach"),
            (["--horizon", "0.5"], "--horizon needs --stop horizon"),
            (["--stop", "reach", "--level", "3", "--horizon", "1"],
             "--horizon needs --stop horizon")):
        assert main(base + argv) == 1, argv
        captured = capsys.readouterr()
        assert f"usage error: {message}\n" in captured.err, argv
        assert captured.out == "", argv


def test_oracle_bad_lambda_is_a_usage_error(capsys):
    for argv in (["--star-n", "5"], ["--edges", "0-1"]):
        for lam in ("-1", "nan", "inf"):
            assert main(["oracle", *argv, "--lambda", lam]) == 1, (argv, lam)
            assert "usage error: lambda must be finite and >= 0" \
                in capsys.readouterr().err


def test_oracle_bad_input_is_a_usage_error(capsys):
    for argv, message in (
            (["--star-n", "-1"], "star size must be >= 0"),
            (["--edges", "0-1", "--root", "5"], "root 5 is not a vertex")):
        assert main(["oracle", *argv, "--lambda", "1.0"]) == 1, argv
        captured = capsys.readouterr()
        assert f"usage error: {message}" in captured.err, argv
        assert "Traceback" not in captured.err and captured.out == "", argv


def test_every_error_has_one_exit_family():
    # The CLI maps CapacityError to exit 3 and NumericalError to exit 2.
    families = (errors.CapacityError, errors.NumericalError)
    found, pending = [], list(errors.PertreeError.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in families:
            found.append(cls)
    assert len(found) == 11
    for cls in found:
        assert sum(issubclass(cls, f) for f in families) == 1, cls.__name__


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"degrees": "3,4", "lambda-grid": "0.1:0.1:0.1",
                               "horizon": 5.0, "replicas": 100, "seed": 3}))
    code, out = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    # explicit flag wins over the config value
    code, out = run(capsys, "sweep", "--config", str(cfg),
                    "--lambda-grid", "0.1:0.2:0.1")
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    # a required flag may come from the config alone
    cfg.write_text(json.dumps({"n": 5, "lambda": 0.5}))
    code, out = run(capsys, "star", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "replica,hit,time,peak,time_avg_leaves"
    assert len(out.strip().splitlines()) == 2


def test_config_values_take_option_types(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    base = {"degrees": "3,4", "horizon": 5, "replicas": "2", "seed": 3}
    cfg.write_text(json.dumps(dict(base, lam="0.3")))
    code, out = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["lambda"] == 0.3
    for bad in ({"lam": "x"}, {"lam": [0.3]}, {"lam": True},
                {"lam": 0.3, "replicas": 2.5}, {"lam": 0.3, "mode": "walk"}):
        cfg.write_text(json.dumps(dict(base, **bad)))
        assert main(["simulate", "--config", str(cfg)]) == 1, bad
        assert "usage error: config" in capsys.readouterr().err


def test_config_keys_are_dests_or_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    base = {"degrees": "3,4", "horizon": 5, "replicas": 2, "seed": 3}
    for spelling in ("lam", "lambda"):
        cfg.write_text(json.dumps(dict(base, **{spelling: 0.3})))
        code, out = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0, spelling
        assert json.loads(out.strip().splitlines()[-1])["lambda"] == 0.3
    for typo in ("replicsa", "Lambda", "--lambda", "help", "_options"):
        cfg.write_text(json.dumps(dict(base, lam=0.3, **{typo: 50})))
        assert main(["simulate", "--config", str(cfg)]) == 1, typo
        assert f"usage error: config: unknown key {typo!r}" in capsys.readouterr().err


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for loaded in ([1, 2], "lam", 3, None):
        cfg.write_text(json.dumps(loaded))
        assert main(["simulate", "--config", str(cfg)]) == 1, loaded
        assert "usage error: config: expected a JSON object" in capsys.readouterr().err


def test_missing_parameters_are_named_by_flag(tmp_path, capsys):
    assert main(["simulate", "--degrees", "3,4"]) == 1
    assert "usage error: missing required parameters: --lambda, --horizon" \
        in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"degrees": "3,4", "horizon": 5}))
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "usage error: missing required parameters: --lambda-grid" \
        in capsys.readouterr().err


def test_star_bad_horizon_is_a_usage_error(capsys):
    for horizon in ("-1", "0", "nan"):
        assert main(["star", "--n", "5", "--lambda", "0.5", "--stop", "horizon",
                     "--horizon", horizon]) == 1, horizon
        assert "usage error: stop='horizon' needs a positive horizon" \
            in capsys.readouterr().err


def test_usage_exit_codes(capsys):
    assert main(["bounds"]) == 1                       # missing --degrees
    assert "usage error: missing required parameters: --degrees" \
        in capsys.readouterr().err
    assert main(["simulate", "--degrees", "3,4"]) == 1  # missing lambda/horizon
    assert main(["bounds", "--degrees", "3,x"]) == 1
    capsys.readouterr()


def test_bad_grid_is_a_usage_error(capsys):
    for grid in ("0.1:0.2:0", "0.1:0.2:-0.1", "0.1:0.2", "0.1:x:0.1",
                 "0.1:inf:0.1", "0.1:0.2:nan", "0.5:0.3:0.1", "0:1:1e-300",
                 "0:1:1e-7", "1e20:1e20:1"):
        assert main(["sweep", "--degrees", "3,4", "--lambda-grid", grid,
                     "--horizon", "5"]) == 1, grid
        assert "usage error: bad grid" in capsys.readouterr().err
    assert main(["predict", "--degrees", "1,n", "--n-range", "1:5:0"]) == 1
    assert "usage error: bad grid" in capsys.readouterr().err


def test_documented_grids_are_pinned():
    assert cli._parse_grid("0.30:0.50:0.05") == [0.3, 0.35, 0.4, 0.45, 0.5]
    assert cli._parse_grid("0.05:0.25:0.02") == [
        0.05, 0.07, 0.09, 0.11, 0.13, 0.15, 0.17, 0.19, 0.21, 0.23, 0.25]
    assert cli._parse_grid("0.1:0.2:0.1") == [0.1, 0.2]


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-1e6, 1e6), width=st.floats(0, 1e6),
       steps=st.floats(0.01, 2 * cli.GRID_MAX_STEPS))
def test_grid_property(start, width, steps):
    stop = start + width
    step = (stop - start) / steps if stop > start else 1.0
    assume(step >= cli.GRID_MIN_STEP * max(1.0, abs(start), abs(stop)))
    text = f"{start!r}:{stop!r}:{step!r}"
    if (stop - start) / step > cli.GRID_MAX_STEPS:
        with pytest.raises(ValueError, match="bad grid"):
            cli._parse_grid(text)
        return
    grid = cli._parse_grid(text)
    assert grid[0] == round(start, 12)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    slack = 1e-9 * max(1.0, abs(stop))
    assert stop - step - slack <= grid[-1] <= stop + slack


def test_predict_without_n_slot_is_a_usage_error(capsys):
    assert main(["predict", "--degrees", "1,5", "--n-range", "1:1:1"]) == 1
    assert "no 'n' slot" in capsys.readouterr().err


def test_predict_rejects_an_n_that_is_not_an_integer(capsys):
    assert main(["predict", "--degrees", "1,n", "--n-range", "10:11:0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --n-range '10:11:0.5'" in captured.err
    assert "not an integer" in captured.err


def test_cp_threads_that_is_not_an_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CP_THREADS", "two")
    assert main(["sweep", "--degrees", "3,4", "--lambda-grid", "0.1:0.2:0.1",
                 "--horizon", "2", "--replicas", "3"]) == 1
    assert "usage error: CP_THREADS must be an integer, got 'two'" in capsys.readouterr().err


def test_brw_population_cap_below_one_is_a_usage_error(capsys):
    # a cap of 0 used to truncate every first birth and count it as survival
    assert main(["sweep", "--degrees", "3,4", "--lambda-grid", "0.2:0.3:0.1",
                 "--horizon", "5", "--replicas", "20", "--mode", "brw",
                 "--brw-population-cap", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: replicas and caps must be >= 1" in captured.err


def test_walks_nmax_below_one_is_a_usage_error(capsys):
    for nmax in ("0", "-3"):
        assert main(["walks", "--degrees", "3,4", "--nmax", nmax]) == 1, nmax
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: n_max must be >= 1" in captured.err


def test_oracle_without_mode_is_a_usage_error(capsys):
    assert main(["oracle", "--lambda", "0.5"]) == 1
    assert "usage error: oracle needs" in capsys.readouterr().err


def test_numerical_exit_code(capsys):
    # period-2 weights do not exist above the bound; InvalidShape from predict
    assert main(["predict", "--degrees", "5,n", "--n-range", "1:1:1"]) == 2
    capsys.readouterr()


def test_capacity_exit_code(capsys):
    assert main(["walks", "--degrees", "3,4", "--nmax", "100"]) == 3
    edges = ",".join(f"0-{i}" for i in range(1, 15))   # 15 vertices
    assert main(["oracle", "--edges", edges, "--lambda", "0.5"]) == 3
    capsys.readouterr()


def test_star_step_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sim, "BATCH_MAX_STEPS", 1_000)
    assert main(["star", "--n", "60", "--lambda", "1.0", "--replicas", "100"]) == 3
    assert "star batch still live after 1000 steps" in capsys.readouterr().err


def test_bounds_large_period2(capsys):
    # power iteration stalled here; the eigenvalue solve does not
    code, out = run(capsys, "bounds", "--degrees", "326,1524")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["lambda_g"] == pytest.approx(1 / math.sqrt(327 * 1525), rel=1e-12)


def test_oracle_bad_edges_are_a_usage_error(capsys):
    for edges, message in (("0-0", "self-loop at vertex 0"),
                           ("0-1,1-0", "edge 0-1 is listed twice at 0"),
                           ("0-1-2", "edge '0-1-2' is not of the form v-w"),
                           ("0--1", "edge '0--1' is not of the form v-w"),
                           ("0-1,,1-2", "edge '' is not of the form v-w"),
                           ("0-x", "edge '0-x' is not of the form v-w")):
        assert main(["oracle", "--edges", edges, "--lambda", "1.0"]) == 1, edges
        captured = capsys.readouterr()
        assert f"usage error: {message}" in captured.err, edges
        assert captured.out == "", edges


def test_manifest_started_is_stamped_before_the_work(tmp_path, monkeypatch, capsys):
    log = []

    def now():
        log.append("now")
        return f"stamp{len(log)}"

    def work(*args, **kwargs):
        log.append("work")
        return real_run_replicas(*args, **kwargs)

    real_run_replicas = cli.run_replicas
    monkeypatch.setattr(cli, "_now", now)
    monkeypatch.setattr(cli, "run_replicas", work)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--degrees", "3,4", "--lambda", "0.3", "--horizon", "5",
                 "--replicas", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert log == ["now", "work", "now"]
    assert (manifest["started"], manifest["finished"]) == ("stamp1", "stamp3")
    assert list(manifest) == ["subcommand", "parameters", "seed", "version",
                              "started", "finished", "outputs"]


def _subcommands(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flag_values(action):
    """Two command-line strings for an option; the first differs from its default."""
    typed = action.type or str
    pool = (list(action.choices) if action.choices else
            {int: ["7", "9"], float: ["0.25", "0.75"]}.get(typed, ["alpha", "beta"]))
    return sorted(pool, key=lambda v: typed(v) == action.default)


@pytest.mark.parametrize("name", list(_subcommands(cli.build_parser())))
def test_config_sets_every_option_and_flags_win(name, tmp_path, monkeypatch):
    seen, build = [], cli.build_parser

    def recording_parser():
        parser = build()
        for sub in _subcommands(parser).values():
            sub.set_defaults(func=lambda args: seen.append(args) or 0)
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    actions = [a for a in _subcommands(build())[name]._actions
               if a.option_strings and a.dest not in ("help", "config")]
    cfg = tmp_path / "run.json"

    def check(config, flags, pick):
        cfg.write_text(json.dumps({a.dest: _flag_values(a)[0] for a in config}))
        argv = [name, "--config", str(cfg)]
        for a in flags:
            argv += [a.option_strings[0], _flag_values(a)[pick]]
        assert main(argv) == 0
        for a in actions:
            want = (a.type or str)(_flag_values(a)[pick if a in flags else 0])
            assert getattr(seen[-1], a.dest) == want, a.dest

    # every option the command line leaves out is taken from the config
    check([a for a in actions if not a.required],
          [a for a in actions if a.required], 0)
    # and a flag on the command line wins over the config
    check(actions, actions, 1)
