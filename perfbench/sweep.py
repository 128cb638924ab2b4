"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload solve_m2 --seeds 1-10 [--trace 1]

For every metric prints the median, the first and third quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) and the spread, the
inter-quartile distance as a share of the median.  ``--json FILE`` also
writes every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int,
                   default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--json", help="append each run's result line to this file")
    args = p.parse_args(argv)
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)
        if args.json:
            with open(args.json, "a") as fh:
                fh.write(json.dumps(dict(res, workload=args.workload)) + "\n")
    print(f"{args.workload}: {len(runs)} runs, "
          f"{sum(not r['correct'] for r in runs)} not correct")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:45s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}")


if __name__ == "__main__":
    raise SystemExit(main())
