"""Output checks of the benchmark workloads.

``check(workload, seed, rc, out)`` returns a list of problems, empty when the
call's exit code and output files are right.  On the workload's default seed
the outputs must equal the references in ``reference.json``; on any other
seed only properties that hold for every seed are checked.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = {"solve_m2": 7, "solve_m3": 7, "reduce_sparse": 7, "measure_m3": 42}
# solve_m3 stops on max-iters (2) today; a truthful truncation-floor stop may exit 0.
EXPECTED_RC = {"solve_m2": {0}, "solve_m3": {0, 2}, "reduce_sparse": {0}, "measure_m3": {0}}

L1_ABS_TOL = 1e-15       # residual l1_coeff equal to the reference up to rounding
OMEGA_REL_TOL = 1e-12    # final frequencies equal to the reference up to rounding
RESIDUAL_TARGET = 1e-10  # schedule.residual_target of the solve workloads


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def _report(out):
    return json.loads((out / "report.json").read_text())


def _final_l1(doc):
    return float(doc["residuals"][-1]["l1_coeff"])


def _check_solve_m2(seed, out, ref):
    doc = _report(out)
    l1 = _final_l1(doc)
    problems = []
    if doc["converged"] is not True:
        problems.append(f"did not converge ({doc['stop_reason']})")
    if not l1 <= RESIDUAL_TARGET:
        problems.append(f"final l1_coeff {l1!r} above {RESIDUAL_TARGET}")
    if seed == DEFAULT_SEED["solve_m2"] and abs(l1 - ref["l1_coeff"]) > L1_ABS_TOL:
        problems.append(f"final l1_coeff {l1!r} != reference {ref['l1_coeff']!r}")
    return problems


def _check_solve_m3(seed, out, ref):
    l1 = _final_l1(_report(out))
    if not math.isfinite(l1) or l1 < 0.0:
        return [f"final l1_coeff {l1!r} is not a finite norm"]
    if seed == DEFAULT_SEED["solve_m3"] and abs(l1 - ref["l1_coeff"]) > L1_ABS_TOL:
        return [f"final l1_coeff {l1!r} != reference {ref['l1_coeff']!r}"]
    if not l1 <= ref["l1_coeff_bound"]:
        return [f"final l1_coeff {l1!r} above {ref['l1_coeff_bound']!r}"]
    return []


def _check_reduce_sparse(seed, out, ref):
    doc = _report(out)
    with open(out / "omega_table.csv") as fh:
        table = {int(r["j"]): float(r["omega_inf"]) for r in csv.DictReader(fh)}
    problems = []
    if doc["converged"] is not True:
        problems.append(f"did not converge ({doc['stop_reason']})")
    jmax = ref["jmax"]
    if sorted(table) != [j for j in range(-jmax, jmax + 1) if j != 0]:
        return problems + [f"omega_table rows {sorted(table)[:3]}... are not +-1..+-{jmax}"]
    if seed == DEFAULT_SEED["reduce_sparse"]:
        want = {int(j): v for j, v in ref["omega_table"].items()}
        bad = [j for j in table if not math.isclose(table[j], want[j], rel_tol=OMEGA_REL_TOL)]
        if bad:
            problems.append(f"omega_table differs from the reference at j={bad[:5]}")
        return problems
    # Any seed: real-odd frequencies close to the unperturbed -lambda3 j^3 + lambda1 j.
    lam3, lam1 = float(doc["lambda3"]), float(doc["lambda1"])
    for j, w in table.items():
        if not math.isclose(w, -table[-j], rel_tol=OMEGA_REL_TOL, abs_tol=1e-12):
            problems.append(f"omega_inf({j}) != -omega_inf({-j})")
            break
        if not abs(w - (-lam3 * j**3 + lam1 * j)) <= ref["omega_shift_bound"]:
            problems.append(f"omega_inf({j}) = {w!r} far from -lambda3 j^3 + lambda1 j")
            break
    return problems


def _check_measure_m3(seed, out, ref):
    rows = _report(out)["rows"]
    fractions = [float(r["fraction"]) for r in rows]
    problems = []
    if [float(r["gamma"]) for r in rows] != ref["gamma_grid"]:
        problems.append("gamma grid differs from the config")
    if any(int(r["n_samples"]) != ref["samples"] for r in rows):
        problems.append("sample count differs from the config")
    if any(not (r["ci_low"] <= r["fraction"] <= r["ci_high"]) for r in rows):
        problems.append("a fraction lies outside its confidence interval")
    # The same samples are tested at each level, and a smaller gamma accepts more.
    if any(b < a for a, b in zip(fractions, fractions[1:])) \
            or not 0.0 <= fractions[0] <= fractions[-1] <= 1.0:
        problems.append(f"fractions {fractions} are not non-decreasing in [0, 1]")
    if seed == DEFAULT_SEED["measure_m3"] and fractions != ref["fractions"]:
        problems.append(f"fractions {fractions} != reference {ref['fractions']}")
    return problems


CHECKS = {
    "solve_m2": _check_solve_m2,
    "solve_m3": _check_solve_m3,
    "reduce_sparse": _check_reduce_sparse,
    "measure_m3": _check_measure_m3,
}


def check(workload, seed, rc, out, reference=None):
    """Problems with one call's exit code and outputs; [] when it is correct."""
    if rc not in EXPECTED_RC[workload]:
        return [f"exit code {rc}, expected one of {sorted(EXPECTED_RC[workload])}"]
    ref = (reference or load_reference())[workload]
    try:
        return CHECKS[workload](seed, Path(out), ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
