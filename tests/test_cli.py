import json
from pathlib import Path

import numpy as np
import pytest

from airykam import nashmoser
from airykam.cli import _write_json, main
from airykam.config import (
    ConfigError,
    function_from_entries,
    jmax_from,
    load_config,
    parse_config_text,
    problem_spec_from,
)
from airykam.lattice import Enumeration, LatticeParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read(path: Path) -> str:
    return path.read_text()


def test_parse_config_text():
    cfg = parse_config_text(
        "a.b = 1.5\n# comment\nc = [1, 2]\nname = \"x\"\nflag = true\n"
    )
    assert cfg == {"a.b": 1.5, "c": [1, 2], "name": "x", "flag": True}
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here\n")


def test_missing_key_is_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.eta = 1.0\n")
    with pytest.raises(ConfigError) as err:
        problem_spec_from(load_config(bad))
    assert "truncation.M" in str(err.value)


def test_cli_missing_key_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.eta = 1.0\n")
    code = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "truncation.M" in capsys.readouterr().err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 1


def _run_edited(tmp_path, command, name, old, new):
    """Run a command on configs/<name> with one line replaced."""
    base = read(CONFIGS / name)
    assert old in base
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(base.replace(old, new))
    out = tmp_path / "o"
    return main([command, "--config", str(cfg), "--out", str(out)]), out


def _solve_small_with(tmp_path, old, new):
    """Run solve on solve_small.cfg with one line replaced."""
    return _run_edited(tmp_path, "solve", "solve_small.cfg", old, new)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
def test_cli_rejects_non_finite_config_number(tmp_path, capsys, literal):
    code, out = _solve_small_with(
        tmp_path, "forcing.entries = [[[[1, 1]], 1, 5e-07, 0.0]]",
        f"forcing.entries = [[[[1, 1]], 1, {literal}, 0.0]]")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "forcing.entries" in err and "line " in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("old,new", [
    ("truncation.M = 2", "truncation.M = 0"),
    ("truncation.M = 2", "truncation.M = 2.5"),
    ("problem.eta = 1.0", "problem.eta = -1"),
], ids=["M-zero", "M-fractional", "eta-negative"])
def test_cli_bad_lattice_is_config_error(tmp_path, capsys, old, new):
    code, out = _solve_small_with(tmp_path, old, new)
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "report.json").exists()


SMALL_FORCING = "forcing.entries = [[[[1, 1]], 1, 5e-07, 0.0]]"


@pytest.mark.parametrize("entry", [
    "[[[1, 1.5]], 1, 5e-07, 0.0]",
    "[[[1.5, 1]], 1, 5e-07, 0.0]",
    "[[[1, 1]], 1.7, 5e-07, 0.0]",
], ids=["lattice-mode", "site", "x-mode"])
def test_cli_rejects_fractional_entry_numbers(tmp_path, capsys, entry):
    code, out = _solve_small_with(tmp_path, SMALL_FORCING, f"forcing.entries = [{entry}]")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "must be an integer" in err and entry in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("entry,why", [
    ("[[[3, 1]], 1, 5e-07, 0.0]", "site 3 > truncation.M = 2"),
    ("[[[1, 9]], 1, 5e-07, 0.0]", "|l|_eta = 9 > truncation.K = 8"),
    ("[[[1, 1]], 17, 5e-07, 0.0]", "|j| = 17 > truncation.jmax = 16"),
], ids=["site", "lattice-norm", "x-mode"])
def test_cli_rejects_entry_outside_truncation(tmp_path, capsys, entry, why):
    code, out = _solve_small_with(tmp_path, SMALL_FORCING, f"forcing.entries = [{entry}]")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and entry in err and why in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["16.5", "-1"])
def test_cli_rejects_bad_jmax(tmp_path, capsys, value):
    code, out = _solve_small_with(tmp_path, "truncation.jmax = 16",
                                  f"truncation.jmax = {value}")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "truncation.jmax" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command,name,old,new,why", [
    ("solve", "solve_small.cfg", "problem.gamma0 = 0.2", 'problem.gamma0 = "abc"',
     "problem.gamma0 must be a number, got 'abc'"),
    ("solve", "solve_small.cfg", "omega.sample = true", 'omega.values = [1.2357, "x"]',
     "omega.values[1] must be a number, got 'x'"),
    ("measure", "measure.cfg", "measure.samples = 1000", "measure.samples = 150.7",
     "measure.samples must be an integer, got 150.7"),
    ("measure", "measure.cfg", "measure.samples = 1000", "measure.samples = 50",
     "measure.samples must be >= 100"),
    ("reduce", "reduce_eps.cfg", "omega.values = [1.2357, 1.7113]",
     "omega.values = [0.5, 1.7113]", "frequency components must lie in [1, 2]"),
    ("solve", "solve_small.cfg", "omega.sample = true", "omega.values = [0.5, 1.7113]",
     "frequency components must lie in [1, 2]"),
    ("check-omega", "check_omega.cfg", "omega.values = [1.2357, 1.7113]",
     "omega.values = [1.2357]", "omega.values must have length M=2, got 1"),
    ("solve", "solve_small.cfg", "problem.S = 1.0", "problem.S = 0.4", "need S > s_bar > 0"),
    ("solve", "solve_small.cfg", "schedule.max_iters = 4", "schedule.max_iters = -3",
     "schedule.max_iters must be >= 1, got -3"),
    ("solve", "solve_small.cfg", "schedule.residual_target = 1e-10",
     "schedule.residual_target = -1", "residual_target must be > 0, got -1.0"),
    ("solve", "solve_small.cfg", "schedule.kam_stop_tol = 1e-13",
     "schedule.kam_stop_tol = -1", "kam_stop_tol must be >= 0, got -1.0"),
    ("reduce", "reduce_eps.cfg", "schedule.stop_tol = 1e-10", "schedule.stop_tol = -1",
     "schedule.stop_tol must be >= 0, got -1.0"),
    ("reduce", "reduce_eps.cfg", "reduce.gamma = 0.001", "reduce.gamma = -1",
     "reduce.gamma must be > 0, got -1.0"),
    ("reduce", "reduce_eps.cfg", "reduce.gamma = 0.001", "reduce.gamma = 0",
     "reduce.gamma must be > 0, got 0.0"),
    ("reduce", "reduce_eps.cfg", "reduce.gamma = 0.001",
     "reduce.gamma = 0.001\nreduce.interior_j = 0", "reduce.interior_j must be >= 1, got 0"),
    ("reduce", "reduce_eps.cfg", "reduce.gamma = 0.001",
     "reduce.gamma = 0.001\nreduce.interior_K = -1", "reduce.interior_K must be > 0, got -1.0"),
    ("solve", "solve_small.cfg", "problem.gbar = 0.5", "problem.gbar = 1.5",
     "problem.gbar must be < 1, got 1.5"),
    ("reduce", "reduce_eps.cfg", "problem.gbar = 0.5", "problem.gbar = 1.5",
     "problem.gbar must be < 1, got 1.5"),
    ("check-omega", "check_omega.cfg", "problem.gbar = 0.5", "problem.gbar = 1.5",
     "problem.gbar must be < 1, got 1.5"),
    ("check-omega", "check_omega.cfg", "problem.gamma0 = 0.2", "problem.gamma0 = -0.2",
     "problem.gamma0 must be > 0, got -0.2"),
    ("measure", "measure.cfg", "measure.gamma_grid = [0.5, 0.25, 0.125]",
     "measure.gamma_grid = [1.5]", "measure.gamma_grid[0] must be < 1, got 1.5"),
    ("measure", "measure.cfg", "measure.gamma_grid = [0.5, 0.25, 0.125]",
     "measure.gamma_grid = [-0.5]", "measure.gamma_grid[0] must be > 0, got -0.5"),
    ("reduce", "reduce_eps.cfg", "schedule.max_steps = 40", "schedule.max_steps = 0",
     "schedule.max_steps must be >= 1, got 0"),
    ("reduce", "reduce_eps.cfg", "schedule.max_steps = 40", "schedule.max_steps = -3",
     "schedule.max_steps must be >= 1, got -3"),
    ("solve", "solve_small.cfg", "schedule.kam_max_steps = 40", "schedule.kam_max_steps = 0",
     "schedule.kam_max_steps must be >= 1, got 0"),
    ("solve", "solve_small.cfg", "schedule.N0 = 8.0", "schedule.N0 = 0",
     "schedule.N0 must be > 0, got 0.0"),
    ("solve", "solve_small.cfg", "schedule.N0 = 8.0", "schedule.N0 = -1",
     "schedule.N0 must be > 0, got -1.0"),
    ("reduce", "reduce_eps.cfg", "schedule.N0 = 8.0", "schedule.N0 = 0",
     "schedule.N0 must be > 0, got 0.0"),
    ("reduce", "reduce_eps.cfg", "schedule.N0 = 8.0", "schedule.N0 = -1",
     "schedule.N0 must be > 0, got -1.0"),
    ("reduce", "reduce_eps.cfg", "reduce.lambda3 = 1.0", "reduce.lambda3 = 0",
     "reduce.lambda3 must be nonzero, got 0.0"),
    ("solve", "solve_small.cfg", "problem.gamma0 = 0.2", "problem.gamma0 = -0.2",
     "problem.gamma0 must be > 0, got -0.2"),
    ("solve", "solve_small.cfg", "omega.seed = 7", "omega.seed = 7\nomega.max_tries = 0",
     "omega.max_tries must be >= 1, got 0"),
    ("solve", "solve_small.cfg", "omega.sample = true",
     "omega.sample = False\nomega.values = [1.1, 1.3]",
     "omega.sample must be true or false, got 'False'"),
    ("solve", "solve_small.cfg", "omega.sample = true", "omega.sample = no",
     "omega.sample must be true or false, got 'no'"),
    ("solve", "solve_small.cfg", "omega.sample = true", 'omega.sample = "false"',
     "omega.sample must be true or false, got 'false'"),
    ("solve", "solve_small.cfg", "omega.sample = true", "omega.sample = 2",
     "omega.sample must be true or false, got 2"),
    ("reduce", "reduce_eps.cfg", "omega.values = [1.2357, 1.7113]",
     "omega.values = [1.2357, 1.7113]\nomega.sample = 0",
     "omega.sample must be true or false, got 0"),
    ("check-omega", "check_omega.cfg", "omega.values = [1.2357, 1.7113]",
     "omega.values = [1.2357, 1.7113]\nomega.sample = yes",
     "omega.sample must be true or false, got 'yes'"),
    ("measure", "measure.cfg", 'measure.predicate = "dgamma"\nmeasure.gamma_grid = [0.5, 0.25, 0.125]',
     'measure.predicate = "bogus"\nmeasure.gamma_grid = []',
     "unknown measure.predicate 'bogus'"),
    ("measure", "measure.cfg", "measure.gamma_grid = [0.5, 0.25, 0.125]",
     "measure.gamma_grid = []", "measure.gamma_grid must not be empty"),
    ("solve", "solve_small.cfg", "omega.sample = true",
     "omega.sample = true\nomega.values = [1.2357, 1.7113]",
     "set exactly one of omega.values and omega.sample = true"),
    ("reduce", "reduce_eps.cfg", "omega.values = [1.2357, 1.7113]",
     "omega.values = [1.2357, 1.7113]\nomega.sample = true",
     "set exactly one of omega.values and omega.sample = true"),
    ("check-omega", "check_omega.cfg", "omega.values = [1.2357, 1.7113]",
     "omega.values = [1.2357, 1.7113]\nomega.sample = true",
     "set exactly one of omega.values and omega.sample = true"),
    ("solve", "solve_small.cfg", "forcing.entries = [[[[1, 1]], 1, 5e-07, 0.0]]",
     "forcing.entries = [[[[1, 1]], 1, nan, 0.0]]", "forcing.entries holds a non-finite number"),
    ("reduce", "reduce_eps.cfg", "reduce.C.entries = [[[], 1, 0.0, -0.0005]]",
     "reduce.C.entries = [[[], 1, 0.0, -inf]]", "reduce.C.entries holds a non-finite number"),
    ("reduce", "reduce_eps.cfg", "omega.values = [1.2357, 1.7113]",
     "omega.values = [1.2357, nan]", "omega.values holds a non-finite number"),
    ("solve", "solve_small.cfg", "omega.seed = 7", "omega.seed = -1",
     "omega.seed must be >= 0, got -1"),
    ("measure", "measure.cfg", "measure.seed = 42", "measure.seed = -1",
     "measure.seed must be >= 0, got -1"),
    ("reduce", "reduce_eps.cfg", "reduce.B.entries = [[[], 0, 0.05, 0.0], [[], 1, 0.0005, 0.0]]",
     "reduce.B.entries = [[[], 0, 0.05, 0.0], [[[1, 1]], 0, 0.01, 0.0]]",
     "reduce.B.entries: x-average of B varies with phi"),
], ids=["string-number", "string-in-omega", "fractional-count", "too-few-samples",
        "reduce-omega-range", "solve-omega-range", "omega-length", "problem-data",
        "max-iters", "residual-target", "kam-stop-tol", "stop-tol",
        "reduce-gamma-negative", "reduce-gamma-zero", "interior-j", "interior-k",
        "solve-gbar", "reduce-gbar", "check-omega-gbar", "check-omega-gamma0",
        "gamma-grid-above", "gamma-grid-below", "max-steps-zero", "max-steps-negative",
        "kam-max-steps-zero", "solve-n0-zero", "solve-n0-negative", "reduce-n0-zero",
        "reduce-n0-negative", "lambda3-zero", "sampled-gamma0", "sampled-max-tries",
        "sample-python-false", "sample-no", "sample-string-false", "sample-number",
        "reduce-sample-zero", "check-omega-sample-yes", "measure-predicate-empty-grid",
        "measure-empty-grid", "solve-omega-both", "reduce-omega-both", "check-omega-both",
        "forcing-lowercase-nan", "reduce-c-lowercase-inf", "omega-lowercase-nan",
        "omega-seed-negative", "measure-seed-negative", "reduce-b-average-varies"])
def test_cli_rejects_bad_config_value(tmp_path, capsys, command, name, old, new, why):
    code, out = _run_edited(tmp_path, command, name, old, new)
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and why in err
    assert not out.exists()


@pytest.mark.parametrize("command,name", [("measure", "measure.cfg"),
                                          ("solve", "solve_small.cfg")])
def test_cli_rejects_negative_seed_option(tmp_path, capsys, command, name):
    out = tmp_path / "o"
    code = main([command, "--config", str(CONFIGS / name), "--out", str(out), "--seed", "-1"])
    assert code == 1
    assert "config error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [1, 8])
def test_oversample_key_is_not_read(value):
    """The residual grid factor follows from the quadratic nonlinearity; a
    leftover truncation.oversample line is an unread key like any other."""
    cfg = parse_config_text(read(CONFIGS / "solve_small.cfg")
                            + f"truncation.oversample = {value}\n")
    assert problem_spec_from(cfg).oversample == 2


def test_integral_floats_are_accepted():
    lat = LatticeParams(1.0, 2, 8.0)
    as_ints = function_from_entries([[[[1, 1], [2, -1]], 1, 5e-7, 0.0]], lat, 16)
    as_floats = function_from_entries([[[[1.0, 1.0], [2.0, -1.0]], 1.0, 5e-7, 0.0]], lat, 16)
    assert as_floats.coeffs == as_ints.coeffs and len(as_ints.coeffs) == 2
    assert jmax_from({"truncation.jmax": 16.0}) == 16
    assert jmax_from({}, default=0) == 0


def test_cli_convolution_limit_is_config_error(tmp_path, capsys, monkeypatch):
    """solve and reduce refuse a lattice whose convolution table is over the
    limit before any work; measure and check-omega need no table."""
    monkeypatch.setattr(Enumeration, "_CONV_LIMIT", 50)   # the fixtures have 71-73 indices
    for command, cfg in (("solve", "solve_small.cfg"), ("reduce", "reduce_eps.cfg")):
        out = tmp_path / command
        assert main([command, "--config", str(CONFIGS / cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "convolution-table limit of 50" in err
        assert not out.exists()
    for command, cfg in (("measure", "measure.cfg"), ("check-omega", "check_omega.cfg")):
        out = tmp_path / command
        assert main([command, "--config", str(CONFIGS / cfg), "--out", str(out)]) == 0


def test_write_json_is_strict(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    path = tmp_path / "r.json"
    _write_json(path, {"a": np.float64("inf"), "b": float("nan")})
    assert json.loads(path.read_text(), parse_constant=reject) == {"a": "inf", "b": "nan"}


def test_cmd_measure_deterministic(tmp_path):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["measure", "--config", str(CONFIGS / "measure.cfg"),
                 "--out", str(out1)]) == 0
    assert main(["measure", "--config", str(CONFIGS / "measure.cfg"),
                 "--out", str(out2)]) == 0
    assert read(out1 / "report.json") == read(out2 / "report.json")
    assert read(out1 / "measure.csv") == read(out2 / "measure.csv")
    rows = json.loads(read(out1 / "report.json"))["rows"]
    assert [r["gamma"] for r in rows] == [0.5, 0.25, 0.125]


def test_cmd_check_omega(tmp_path, capsys):
    code = main(["check-omega", "--config", str(CONFIGS / "check_omega.cfg"),
                 "--out", str(tmp_path / "c")])
    assert code == 0
    text = capsys.readouterr().out
    assert "Diophantine" in text and "pass" in text
    doc = json.loads(read(tmp_path / "c" / "report.json"))
    assert doc["diophantine"]["ok"] is True


def test_cmd_check_omega_resonant(tmp_path):
    cfg = tmp_path / "res.cfg"
    cfg.write_text(
        "problem.eta = 1.0\nproblem.gbar = 0.5\nproblem.gamma0 = 0.2\n"
        "truncation.M = 2\ntruncation.K = 8.0\ntruncation.jmax = 8\n"
        "omega.values = [1.5, 1.5]\n"
    )
    code = main(["check-omega", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert code == 2
    doc = json.loads(read(tmp_path / "c" / "report.json"))
    assert doc["diophantine"]["ok"] is False
    assert doc["diophantine"]["witness"] is not None


def test_cmd_reduce_fixture(tmp_path):
    out = tmp_path / "r"
    code = main(["reduce", "--config", str(CONFIGS / "reduce_eps.cfg"),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out / "report.json"))
    assert doc["converged"] is True
    assert doc["diagnostics"]["offdiag_residual"] <= 1e-8
    table = read(out / "omega_table.csv").splitlines()
    assert table[0] == "j,omega_inf"
    assert len(table) == 2 * 16 + 1  # header + both signs of j
    trace = read(out / "trace.csv").splitlines()
    assert trace[0] == "step,p_norm,min_margin,seconds"


def _without_seconds(path: Path) -> list:
    """The rows of a csv file less its ``seconds`` column."""
    rows = [line.split(",") for line in read(path).splitlines()]
    drop = rows[0].index("seconds")
    return [row[:drop] + row[drop + 1:] for row in rows]


def test_reduce_rerun_writes_the_same_files(tmp_path):
    """Two reduce runs write byte-identical report.json and omega_table.csv,
    and the same trace.csv but for its wall-clock column."""
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["reduce", "--config", str(CONFIGS / "reduce_eps.cfg"),
                     "--out", str(out)]) == 0
    for name in ("report.json", "omega_table.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    first, second = (_without_seconds(out / "trace.csv") for out in outs)
    assert first == second and len(first) > 1


def test_cmd_reduce_resonant_witness(tmp_path, capsys):
    code = main(["reduce", "--config", str(CONFIGS / "reduce_resonant.cfg"),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    text = capsys.readouterr().out
    assert "witness" in text
    doc = json.loads(read(tmp_path / "r" / "report.json"))
    assert doc["stop_reason"] == "small-divisor"
    assert doc["witness"]["l"]
    # the breach is at step 0: no KAM step completed
    assert doc["trace"] == []
    assert read(tmp_path / "r" / "trace.csv").splitlines() == ["step,p_norm,min_margin,seconds"]


def test_cmd_reduce_diverging_series_reports_a_numerical_failure(tmp_path, capsys):
    """Zero-order coefficients of 0.1 make a Lie series of the reduction
    diverge: exit 2 with a report.json, as a solve reports the same failure.
    Two KAM steps complete before the third fails, and report.json and
    trace.csv keep both rows, as a converged run's do."""
    code, out = _run_edited(
        tmp_path, "reduce", "reduce_eps.cfg", "reduce.C.entries = [[[], 1, 0.0, -0.0005]]",
        "reduce.C.entries = [[[[1, 1]], 1, 0.0, 0.1], [[[2, 1]], 2, 0.1, 0.0]]")
    assert code == 2
    assert "reduction failed" in capsys.readouterr().out
    doc = json.loads(read(out / "report.json"))
    assert doc["converged"] is False
    assert doc["stop_reason"] == "numerical-failure:SeriesDivergenceError"
    assert doc["failure"]["message"] and doc["omega"] == [1.2357, 1.7113]
    rows = doc["trace"]
    assert [row["step"] for row in rows] == [0, 1]
    assert [row["p_norm"] for row in rows] == pytest.approx([0.40106673263661,
                                                             1.2167597051812609], rel=1e-9)
    assert all(row["margin"] == 4.9428 and row["odd_defect"] == 0.0 for row in rows)
    assert _without_seconds(out / "trace.csv") == [["step", "p_norm", "min_margin"]] + [
        [str(row["step"]), repr(row["p_norm"]), repr(row["margin"])] for row in rows]


def test_cmd_solve_zero_forcing(tmp_path):
    cfg = tmp_path / "zero.cfg"
    base = read(CONFIGS / "solve_small.cfg")
    base = base.replace("forcing.entries = [[[[1, 1]], 1, 5e-07, 0.0]]",
                        "forcing.entries = []")
    cfg.write_text(base)
    out = tmp_path / "s"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(read(out / "report.json"))
    assert doc["converged"] is True and doc["iterations"] == 0
    sol = json.loads(read(out / "solution.json"))
    assert sol["entries"] == []


def test_cmd_solve_stops_on_non_finite_residual(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(nashmoser, "residual",
                        lambda spec, u, oversample=None: nashmoser.ResidualReport(np.nan, np.nan))
    out = tmp_path / "s"
    code = main(["solve", "--config", str(CONFIGS / "solve_small.cfg"), "--out", str(out)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().out
    doc = json.loads(read(out / "report.json"))
    assert doc["stop_reason"] == "non-finite" and doc["iterations"] == 1
    assert doc["residuals"] == [{"max_grid": "nan", "l1_coeff": "nan"}]


def test_cmd_solve_reports_omega_outside_the_diophantine_set(tmp_path, capsys):
    """omega = (1.5, 1.5) has the zero divisor (1, -1) . omega: a membership
    failure is a stop with its witness (exit 2), not a traceback."""
    code, out = _solve_small_with(tmp_path, "omega.sample = true",
                                  "omega.sample = false\nomega.values = [1.5, 1.5]")
    assert code == 2
    assert "numerical-failure:SmallDivisorError" in capsys.readouterr().out
    doc = json.loads(read(out / "report.json"))
    assert doc["stop_reason"] == "numerical-failure:SmallDivisorError"
    assert doc["iterations"] == 0 and doc["converged"] is False
    assert doc["residuals"] == [] and doc["records"] == []
    witness = doc["failure"]["witness"]
    assert witness["divisor"] == 0.0 and witness["floor"] > 0.0
    assert sorted(map(tuple, witness["l"])) == [(1, -1), (2, 1)]
    assert not (out / "solution.json").exists()


def test_cmd_solve_reference_fixture(tmp_path):
    out = tmp_path / "s"
    code = main(["solve", "--config", str(CONFIGS / "solve_small.cfg"),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out / "report.json"))
    assert doc["converged"] is True
    assert doc["iterations"] <= 4
    last = doc["residuals"][-1]
    assert max(last["max_grid"], last["l1_coeff"]) <= 1e-10
    trace = read(out / "trace.csv").splitlines()
    assert trace[0] == "step,s_n,sigma_n,norm_f_n,norm_h_n,residual,min_margin,seconds"
    assert len(trace) >= 2


def test_cmd_selftest():
    assert main(["selftest", "--out", "unused-out"]) == 0
