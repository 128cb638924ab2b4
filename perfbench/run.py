"""airykam benchmark: one run of one workload.

    python3 perfbench/run.py --workload solve_m2 --seed 7 --seconds 10 --trace 0

Run from the root of a checkout; airykam is imported from its ``src/``.
Each call of the CLI (``airykam.cli.main``) happens in a fresh interpreter
(``child.py``), one at a time (closed loop), so the cached lattice tables
start cold as they do for a CLI user.  Calls repeat for about ``--seconds``
(at least one), with one BLAS thread each, and every call's output is
checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the run:
``wall_s`` (the cli.main call), ``cpu_s`` (its user + sys time),
``peak_rss_mb`` (ru_maxrss of the call's process) and ``setup_s`` (import,
config, lattice and problem data in a fresh interpreter; also measured
SETUP_PROBES times on its own).  ``--trace 1`` alternates untraced and
traced calls and reports the per-layer metrics named in BENCHMARK.json from
the traced ones (``tracer.py``), plus ``trace.overhead_s``, the traced minus
the untraced median ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check, load_reference  # noqa: E402
from child import WORKLOADS, cli_seed  # noqa: E402

SETUP_PROBES = 10    # set-up-only interpreters per untraced run
DEADLINE_S = 165.0   # start no call that would likely end after this

# One BLAS thread per call: with nproc threads OpenBLAS spin-waits on every
# core the host lends us, doubling cpu_s for no wall time on reduce_sparse and
# making both depend on what else the host runs.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def spec():
    return json.loads(Path("BENCHMARK.json").read_text())


class Run:
    def __init__(self, workload, seed, out_dir):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.reference = load_reference()
        self.attempted = self.failed = 0
        self.problems = []
        self.start = time.perf_counter()
        self.longest = 0.0

    def call(self, k, setup_only=False, traced=False):
        """Run child.py once; return its result dict, or None when the call failed."""
        out = self.out_dir / f"call{k}"
        result = self.out_dir / f"call{k}.json"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(self.out_dir / f"call{k}.spans.jsonl")]
        self.attempted += 1
        started = time.perf_counter()
        remaining = self.start + DEADLINE_S + 10.0 - started
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=max(remaining, 1.0), env=CHILD_ENV)
        except subprocess.TimeoutExpired:
            return self.fail(f"call {k} timed out")
        self.longest = max(self.longest, time.perf_counter() - started)
        (self.out_dir / f"call{k}.log").write_text(proc.stdout)
        if proc.returncode != 0 or not result.is_file():
            return self.fail(f"call {k}: child exited {proc.returncode}: {proc.stdout[-2000:]}")
        res = json.loads(result.read_text())
        if res["error"]:
            return self.fail(f"call {k} raised: {res['error']}")
        if not setup_only:
            problems = check(self.workload, self.seed, res["rc"], out, self.reference)
            if problems:
                return self.fail(f"call {k}: " + "; ".join(problems))
        return res

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        return None

    def more(self, n_done, loop_start, seconds):
        """Call again while the next call would likely end by `seconds` after loop_start.

        A call is started when less than half of it would run past `seconds`,
        so a run lasts about `seconds` whatever the call's length, and never
        when it could end after the deadline.
        """
        now = time.perf_counter()
        if n_done == 0:
            return True
        elapsed = now - loop_start
        return (elapsed + 0.5 * elapsed / n_done < seconds
                and now + self.longest - self.start < DEADLINE_S)


def median_of(results, key):
    vals = [r[key] for r in results if r is not None and key in r]
    return statistics.median(vals) if vals else 0.0  # no successful call: the run is not correct


def median_summary(summaries):
    """Per-key median over traced calls; a key a call lacks counts as 0."""
    keys = set().union(*summaries) if summaries else set()
    return {k: statistics.median(s.get(k, 0.0) for s in summaries) for k in keys}


def untraced(run, seconds):
    probes = [run.call(f"setup{i}", setup_only=True) for i in range(SETUP_PROBES)]
    calls = []
    loop_start = time.perf_counter()
    while run.more(len(calls), loop_start, seconds):
        calls.append(run.call(len(calls)))
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    values = {
        "wall_s": median_of(calls, "wall_s"),
        "cpu_s": median_of(calls, "cpu_s"),
        "peak_rss_mb": median_of(calls, "peak_rss_mb"),
        "setup_s": median_of(probes + calls, "setup_s"),
    }
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def traced(run, seconds):
    plain, traced_ = [], []
    loop_start = time.perf_counter()
    while run.more(len(traced_), loop_start, seconds):
        plain.append(run.call(f"{len(plain)}u"))
        traced_.append(run.call(f"{len(traced_)}t", traced=True))
    summary = median_summary([r["summary"] for r in traced_ if r is not None])
    summary["trace.overhead_s"] = median_of(traced_, "wall_s") - median_of(plain, "wall_s")
    return {m["name"]: {"value": summary.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec()["per_layer"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (Path("src") / "airykam" / "cli.py").is_file():
        print("run from the root of an airykam checkout (src/airykam not found)",
              file=sys.stderr)
        return 2
    out_dir = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = Run(args.workload, cli_seed(args.workload, args.seed), out_dir)
    metrics = (traced if args.trace else untraced)(run, args.seconds)
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
