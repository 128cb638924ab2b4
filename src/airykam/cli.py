"""Batch front end: solve | reduce | measure | check-omega | selftest.

Exit codes: 0 success (or convergence), 2 clean numerical non-convergence or
membership failure, 1 input/config errors.  All JSON reports are written with
sorted keys, so identical configs and seeds produce byte-identical reports,
and are strict JSON: a non-finite number is written as the string "inf",
"-inf" or "nan".  Trace CSVs carry a wall-clock ``seconds`` column that is
exempt from the byte-identity guarantee.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    check_convolution_size,
    function_from_entries,
    gbar_from,
    get,
    integer,
    jmax_from,
    lattice_from,
    load_config,
    number,
    numbers,
    omega_from,
    problem_spec_from,
    seed_from,
)
from .errors import ReductionError, SeriesDivergenceError, SmallDivisorError
from .nashmoser import ResidualReport, _failure, solve
from .opalg import DifferentialOperator
from .reducibility import KamSchedule, reduce_operator
from .selftest import run_selftest
from .smalldiv import (
    is_airy_nonresonant,
    is_diophantine,
    measure_estimate,
    smallest_divisor_report,
)

log = logging.getLogger(__name__)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def cmd_solve(cfg: dict, out: Path, seed_override=None) -> int:
    max_iters = integer(cfg, "schedule.max_iters", 6, minimum=1)
    spec = problem_spec_from(cfg, seed_override=seed_override)
    report = solve(spec, max_iters=max_iters)
    doc = report.to_json_dict()
    doc["omega"] = spec.omega.tolist()
    _write_json(out / "report.json", doc)
    rows = []
    for rec, res in zip(report.records, report.residuals):
        rows.append({
            "step": rec["step"],
            "s_n": rec["s_n"],
            "sigma_n": rec["sigma_n"],
            "norm_f_n": rec["norm_f"],
            "norm_h_n": rec["norm_h"],
            "residual": ResidualReport(**res).value,
            "min_margin": rec["min_margin"],
            "seconds": rec["seconds"],
        })
    _write_csv(out / "trace.csv",
               ["step", "s_n", "sigma_n", "norm_f_n", "norm_h_n",
                "residual", "min_margin", "seconds"], rows)
    if report.solution is not None:
        _write_json(out / "solution.json", report.solution)
    if report.converged:
        print(f"converged in {report.iterations} steps; reports in {out}")
        return 0
    print(f"did not converge ({report.stop_reason}); reports in {out}")
    if report.failure:
        print(f"failure detail: {report.failure}")
    return 2


def _write_reduction(out: Path, doc: dict, trace):
    """report.json of a reduction, doc with the rows of its KAM steps less
    their wall-clock seconds, and the steps' trace.csv."""
    _write_json(out / "report.json", {**doc, "trace": [
        {k: v for k, v in row.items() if k != "seconds"} for row in trace]})
    _write_csv(out / "trace.csv", ["step", "p_norm", "min_margin", "seconds"],
               [{**row, "min_margin": row["margin"]} for row in trace])


def _reduce_failed(out: Path, exc, omega, trace) -> int:
    """Report a failed reduction with the KAM steps it completed; exit code 2."""
    if isinstance(exc, SmallDivisorError):
        print(f"reduction aborted on a small divisor: {exc}")
        print(f"witness: {exc.witness()}")
        doc = {"stop_reason": "small-divisor", "witness": exc.witness()}
    else:
        stop, failure = _failure(exc)
        print(f"reduction failed: {exc}")
        doc = {"stop_reason": stop, "failure": failure}
    _write_reduction(out, {**doc, "converged": False, "omega": omega.tolist()}, trace)
    return 2


def cmd_reduce(cfg: dict, out: Path, seed_override=None) -> int:
    lattice = lattice_from(cfg)
    check_convolution_size(lattice)
    jmax = jmax_from(cfg)
    omega = omega_from(cfg, lattice, jmax, seed_override=seed_override)
    B = function_from_entries(get(cfg, "reduce.B.entries", []), lattice, jmax)
    C = function_from_entries(get(cfg, "reduce.C.entries", []), lattice, jmax)
    lam3 = number(cfg, "reduce.lambda3", 1.0)
    if lam3 == 0:
        raise ConfigError(f"reduce.lambda3 must be nonzero, got {lam3}")
    L = DifferentialOperator(omega, lam3, B, C)
    try:
        L.lambda1()
    except ValueError as exc:
        raise ConfigError(f"reduce.B.entries: {exc}; the order-one reduction needs "
                          "a phi-independent x-average") from None
    sched = KamSchedule(
        gamma=number(cfg, "reduce.gamma", above=0.0),
        gbar=gbar_from(cfg),
        N0=number(cfg, "schedule.N0", 8.0, above=0.0),
        stop_tol=number(cfg, "schedule.stop_tol", 1e-10),
        max_steps=integer(cfg, "schedule.max_steps", 40, minimum=1),
    )
    if not sched.stop_tol >= 0:
        raise ConfigError(f"schedule.stop_tol must be >= 0, got {sched.stop_tol}")
    jwin = integer(cfg, "reduce.interior_j", max(1, jmax - 4), minimum=1)
    lwin = number(cfg, "reduce.interior_K", max(1.0, lattice.K - 2.0), above=0.0)
    try:
        red = reduce_operator(L, sched, verify_window=(jwin, lwin))
    except (SmallDivisorError, SeriesDivergenceError, ReductionError) as exc:
        # failed outside the KAM steps: in the order-one reduction or the window
        return _reduce_failed(out, exc, omega, [])
    if red.failure is not None:
        return _reduce_failed(out, red.failure, omega, red.trace)
    _write_reduction(out, {
        "converged": red.converged,
        "stop_reason": red.stop_reason,
        "lambda3": red.lambda3,
        "lambda1": red.lambda1,
        "omega": omega.tolist(),
        "diagnostics": red.diagnostics,
    }, red.trace)
    vals = red.omega_values()
    _write_csv(out / "omega_table.csv", ["j", "omega_inf"],
               [{"j": j, "omega_inf": float(vals[j + jmax])}
                for j in range(-jmax, jmax + 1) if j != 0])
    if not red.converged:
        print(f"reduction did not converge: {red.stop_reason}")
        return 2
    print(f"reduction converged in {red.diagnostics['steps']} steps; reports in {out}")
    return 0


def cmd_measure(cfg: dict, out: Path, seed_override=None) -> int:
    lattice = lattice_from(cfg)
    seed = seed_from(cfg, "measure.seed", seed_override)
    n_samples = integer(cfg, "measure.samples", 1000, minimum=100)
    which = get(cfg, "measure.predicate", "dgamma")
    if which not in ("dgamma", "airy"):
        raise ConfigError(f"unknown measure.predicate {which!r}; use \"dgamma\" or \"airy\"")
    grid = numbers(cfg, "measure.gamma_grid", [0.5, 0.25, 0.125], above=0.0, below=1.0)
    if not grid:
        raise ConfigError("measure.gamma_grid must not be empty")
    jmax = jmax_from(cfg, default=0)

    rows = []
    for gamma in grid:
        if which == "dgamma":
            pred = lambda w, g=gamma: is_diophantine(w, g, lattice).ok
        else:
            pred = lambda w, g=gamma: is_airy_nonresonant(w, g, lattice, jmax).ok
        est = measure_estimate(pred, n_samples, seed, lattice.M)
        rows.append({
            "gamma": gamma,
            "fraction": est.fraction,
            "deficit": 1.0 - est.fraction,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
            "n_samples": est.n_samples,
        })
        print(f"gamma={gamma:g}: fraction={est.fraction:.4f} "
              f"[{est.ci_low:.4f}, {est.ci_high:.4f}]")
    _write_json(out / "report.json",
                {"predicate": which, "seed": seed, "rows": rows})
    _write_csv(out / "measure.csv",
               ["gamma", "fraction", "deficit", "ci_low", "ci_high", "n_samples"], rows)
    return 0


def cmd_check_omega(cfg: dict, out: Path, seed_override=None) -> int:
    lattice = lattice_from(cfg)
    jmax = jmax_from(cfg)
    omega = omega_from(cfg, lattice, jmax, seed_override=seed_override)
    gbar = gbar_from(cfg)
    gamma0 = number(cfg, "problem.gamma0", above=0.0)
    d = is_diophantine(omega, gbar, lattice)
    a = is_airy_nonresonant(omega, gamma0, lattice, jmax)
    airy = -np.arange(-jmax, jmax + 1, dtype=float) ** 3
    rep = smallest_divisor_report(omega, airy, lattice)
    doc = {
        "omega": omega.tolist(),
        "diophantine": {"ok": d.ok, "margin": d.margin,
                        "witness": d.witness.as_dict() if d.witness else None},
        "airy_nonresonant": {"ok": a.ok, "margin": a.margin,
                             "witness": a.witness.as_dict() if a.witness else None},
        "smallest_divisor": rep.as_dict(),
    }
    _write_json(out / "report.json", doc)
    print(f"omega = {omega.tolist()}")
    print(f"Diophantine at gbar={gbar:g}: {'pass' if d.ok else 'FAIL'} "
          f"(margin {d.margin:.3e})")
    if d.witness:
        print(f"  witness: {d.witness.as_dict()}")
    print(f"cubic non-resonance at gamma0={gamma0:g}: {'pass' if a.ok else 'FAIL'} "
          f"(margin {a.margin:.3e})")
    if a.witness:
        print(f"  witness: {a.witness.as_dict()}")
    print(f"smallest scaled divisor: {rep.value:.3e} ({rep.classes})")
    return 0 if (d.ok and a.ok) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airykam",
        description="Truncated-spectral solver for almost-periodic response "
                    "solutions of the forced quasi-linear Airy equation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("solve", True), ("reduce", True), ("measure", True),
        ("check-omega", True), ("selftest", False),
    ):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="Path to a key = value config file.")
        p.add_argument("--out", default="out", help="Output directory (default: ./out).")
        p.add_argument("--seed", type=int, default=None, help="Override the config seed.")
        p.add_argument("--verbose", action="store_true", help="Log progress to stderr.")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    out = Path(args.out)
    try:
        if args.command == "selftest":
            return 0 if run_selftest(verbose=args.verbose) else 2
        cfg = load_config(args.config)
        handler = {
            "solve": cmd_solve,
            "reduce": cmd_reduce,
            "measure": cmd_measure,
            "check-omega": cmd_check_omega,
        }[args.command]
        return handler(cfg, out, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
