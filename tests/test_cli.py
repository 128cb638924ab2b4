import json
from pathlib import Path

import numpy as np
import pytest

from airykam.cli import _write_json, main
from airykam.config import ConfigError, load_config, parse_config_text, problem_spec_from

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


def _solve_small_with(tmp_path, old, new):
    """Run solve on solve_small.cfg with one line replaced."""
    base = read(CONFIGS / "solve_small.cfg")
    assert old in base
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(base.replace(old, new))
    out = tmp_path / "o"
    return main(["solve", "--config", str(cfg), "--out", str(out)]), out


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


def test_cmd_reduce_resonant_witness(tmp_path, capsys):
    code = main(["reduce", "--config", str(CONFIGS / "reduce_resonant.cfg"),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    text = capsys.readouterr().out
    assert "witness" in text
    doc = json.loads(read(tmp_path / "r" / "report.json"))
    assert doc["stop_reason"] == "small-divisor"
    assert doc["witness"]["l"]


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
