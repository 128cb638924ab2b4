"""One benchmark call in a fresh interpreter.

Imports airykam from ``src/`` of the current directory, sets the workload up
(import airykam with numpy already loaded, config, lattice, problem data)
and, unless ``--setup-only``, runs ``airykam.cli.main`` on it.  Writes one
JSON object to ``--result``: ``setup_s``, ``wall_s``, ``cpu_s``,
``peak_rss_mb``, ``rc``, ``error`` and, with ``--spans``, the traced
per-layer ``summary``.

    python3 perfbench/child.py --workload solve_m2 --seed 7 \
        --out perfbench/_out/x --result perfbench/_out/x.json [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

# workload -> (CLI command, config file, omega seeds or None).
# The run's seed becomes the CLI's --seed.  A solve's work depends on the
# sampled frequency omega (on ω seeds 0-20 some breach a Melnikov condition
# at step 0, stall at a residual floor on solve_m2, or need 3 KAM steps, and
# among those with seed 7's step counts the traced block products still
# range over ±10 %), so the solve workloads take pool[seed % len(pool)] from
# the ω seeds in 0-20 whose traced work counts equal seed 7's: outer steps,
# KAM steps, compose calls and block products, Lie-series terms and grid
# points (solve_m2: 139386 block products; solve_m3: 147890), with
# analytic.multiply coefficient pairs within 1 % of seed 7's.
WORKLOADS = {
    "solve_m2": ("solve", "solve_m2.cfg", (3, 7, 15)),
    "solve_m3": ("solve", "solve_m3.cfg", (7, 8)),
    "reduce_sparse": ("reduce", "reduce_sparse.cfg", None),
    "measure_m3": ("measure", "measure_m3.cfg", None),
}


def cli_seed(workload, seed):
    """The --seed the CLI gets for a run seed."""
    pool = WORKLOADS[workload][2]
    return seed if pool is None else pool[seed % len(pool)]


def set_up(command, cfg_path, seed):
    """Load the config and build the lattice tables and the problem data."""
    from airykam import config, lattice

    cfg = config.load_config(cfg_path)
    lat = config.lattice_from(cfg)
    lattice.get_enumeration(lat)
    if command == "solve":
        config.problem_spec_from(cfg, seed_override=seed)
    elif command == "reduce":
        jmax = int(config.require(cfg, "truncation.jmax"))
        config.omega_from(cfg, lat, jmax, seed_override=seed)
        for key in ("reduce.B.entries", "reduce.C.entries"):
            config.function_from_entries(config.get(cfg, key, []), lat, jmax)


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="the CLI's --seed")
    p.add_argument("--out", required=True, help="CLI output directory")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    p.add_argument("--spans", help="trace the call and write its spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    command, cfg_name, _ = WORKLOADS[args.workload]
    cfg_path = str(HERE / "workloads" / cfg_name)
    res = {"rc": None, "error": None}

    # numpy's own import stays outside set-up: no change to airykam moves it,
    # and it is the part of set-up that swings most with the host's load.
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import airykam.cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(run=Path(args.out).name)
        tracer.install()
        tracer.begin("bench.setup")
    try:
        set_up(command, cfg_path, args.seed)
        if tracer:
            tracer.end()
        res["setup_s"] = time.perf_counter() - t0
        if not args.setup_only:
            cpu0, w0 = cpu_seconds(), time.perf_counter()
            res["rc"] = airykam.cli.main([command, "--config", cfg_path, "--out", args.out,
                                          "--seed", str(args.seed)])
            res["wall_s"] = time.perf_counter() - w0
            res["cpu_s"] = cpu_seconds() - cpu0
    except Exception:  # reported to the parent, which counts the call as failed
        res["error"] = traceback.format_exc()
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        if res["error"] is None:
            tracer.dump(args.spans)
            res["summary"] = tracer.summary()
    Path(args.result).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
