"""Tests of the workload output checks on synthetic output files."""

import csv
import json

import pytest

from checks import DEFAULT_SEED, check, load_reference

REF = load_reference()


def write_solve(out, l1, converged=True, stop="tolerance"):
    out.mkdir(parents=True, exist_ok=True)
    doc = {"converged": converged, "stop_reason": stop,
           "residuals": [{"l1_coeff": 1e-6, "max_grid": 1e-6},
                         {"l1_coeff": l1, "max_grid": l1}]}
    (out / "report.json").write_text(json.dumps(doc))


def test_solve_m2_reference_accepted_and_perturbed_l1_rejected(tmp_path):
    ref = REF["solve_m2"]["l1_coeff"]
    write_solve(tmp_path, ref)
    assert check("solve_m2", DEFAULT_SEED["solve_m2"], 0, tmp_path) == []
    write_solve(tmp_path, ref * (1 + 1e-3))
    assert check("solve_m2", DEFAULT_SEED["solve_m2"], 0, tmp_path)
    # On another seed only seed-independent properties are checked.
    assert check("solve_m2", 1234, 0, tmp_path) == []
    write_solve(tmp_path, 2e-10)
    assert check("solve_m2", 1234, 0, tmp_path)


def test_solve_m2_unconverged_rejected(tmp_path):
    write_solve(tmp_path, REF["solve_m2"]["l1_coeff"], converged=False, stop="max-iters")
    assert check("solve_m2", DEFAULT_SEED["solve_m2"], 0, tmp_path)


@pytest.mark.parametrize("workload, rc", [("solve_m2", 2), ("solve_m2", 1),
                                          ("solve_m3", 1), ("reduce_sparse", 2),
                                          ("measure_m3", 1), ("solve_m2", None)])
def test_unexpected_exit_code_rejected(tmp_path, workload, rc):
    write_solve(tmp_path, REF["solve_m2"]["l1_coeff"])
    problems = check(workload, DEFAULT_SEED[workload], rc, tmp_path)
    assert problems and "exit code" in problems[0]


def test_solve_m3_checks_only_final_l1(tmp_path):
    ref = REF["solve_m3"]["l1_coeff"]
    write_solve(tmp_path, ref, converged=False, stop="max-iters")
    assert check("solve_m3", DEFAULT_SEED["solve_m3"], 2, tmp_path) == []
    write_solve(tmp_path, ref, converged=True, stop="truncation-floor")
    assert check("solve_m3", DEFAULT_SEED["solve_m3"], 0, tmp_path) == []
    write_solve(tmp_path, ref + 1e-13, converged=False, stop="max-iters")
    assert check("solve_m3", DEFAULT_SEED["solve_m3"], 2, tmp_path)


def write_reduce(out, table, lambda1=0.1):
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(
        {"converged": True, "stop_reason": "tolerance", "lambda3": 1.0, "lambda1": lambda1}))
    with open(out / "omega_table.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "omega_inf"])
        for j in sorted(table):
            w.writerow([j, repr(table[j])])


def test_reduce_sparse_table(tmp_path):
    table = {int(j): v for j, v in REF["reduce_sparse"]["omega_table"].items()}
    write_reduce(tmp_path, table)
    assert check("reduce_sparse", DEFAULT_SEED["reduce_sparse"], 0, tmp_path) == []
    assert check("reduce_sparse", 99, 0, tmp_path) == []
    bumped = {**table, 5: table[5] * (1 + 1e-9)}
    write_reduce(tmp_path, bumped)
    assert check("reduce_sparse", DEFAULT_SEED["reduce_sparse"], 0, tmp_path)
    assert check("reduce_sparse", 99, 0, tmp_path)          # no longer odd in j
    del table[3]
    write_reduce(tmp_path, table)
    assert check("reduce_sparse", 99, 0, tmp_path)


def write_measure(out, fractions):
    out.mkdir(parents=True, exist_ok=True)
    rows = [{"gamma": g, "fraction": f, "ci_low": f - 0.01, "ci_high": f + 0.01,
             "n_samples": REF["measure_m3"]["samples"]}
            for g, f in zip(REF["measure_m3"]["gamma_grid"], fractions)]
    (out / "report.json").write_text(json.dumps({"rows": rows}))


def test_measure_m3_fractions(tmp_path):
    ref = REF["measure_m3"]["fractions"]
    write_measure(tmp_path, ref)
    assert check("measure_m3", DEFAULT_SEED["measure_m3"], 0, tmp_path) == []
    write_measure(tmp_path, [ref[0] + 5e-5] + ref[1:])
    assert check("measure_m3", DEFAULT_SEED["measure_m3"], 0, tmp_path)
    assert check("measure_m3", 5, 0, tmp_path) == []
    write_measure(tmp_path, ref[::-1])
    assert check("measure_m3", 5, 0, tmp_path)


def test_missing_output_is_a_problem(tmp_path):
    assert check("solve_m2", 7, 0, tmp_path / "nowhere")
