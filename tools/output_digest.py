"""Exit codes and output digests of the shipped runs.

Run from the root of a checkout:

    python tools/output_digest.py [--scratch DIR]

It imports the ``airykam`` package of that checkout's ``src/`` and calls
``airykam.cli.main`` on every ``configs/*.cfg``, on the benchmark workloads
``perfbench/workloads/*.cfg`` at their pinned seeds, and on ``selftest``.
Each run writes into its own directory under a scratch directory (a fresh
temporary one unless ``--scratch`` names one); nothing is written inside the
checkout.  The printout has one line per run with its exit code, and one line
per output file with its sha256.  ``trace.csv`` is hashed without its
``seconds`` column, the one wall-clock field of the outputs.  The printouts of
two checkouts differ exactly where their outputs or exit codes do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload config -> (CLI command, pinned --seed values); the solve seeds are
# the omega seeds the benchmark draws its runs from
WORKLOADS = {
    "solve_m2": ("solve", (3, 7, 15)),
    "solve_m3": ("solve", (7,)),
    "reduce_sparse": ("reduce", (7,)),
    "measure_m3": ("measure", (42,)),
}


def _command(cfg: Path) -> str:
    """The CLI command of a shipped config, named by its file's first word."""
    return "check-omega" if cfg.stem == "check_omega" else cfg.stem.split("_")[0]


def runs():
    """(label, CLI arguments without --out) of every digested run."""
    out = [(cfg.stem, [_command(cfg), "--config", str(cfg)])
           for cfg in sorted((ROOT / "configs").glob("*.cfg"))]
    for name, (command, seeds) in WORKLOADS.items():
        cfg = ROOT / "perfbench" / "workloads" / f"{name}.cfg"
        out += [(f"{name}@{seed}", [command, "--config", str(cfg), "--seed", str(seed)])
                for seed in seeds]
    out.append(("selftest", ["selftest"]))
    return out


def digest(path: Path) -> str:
    """sha256 of a file; a ``trace.csv`` without its ``seconds`` column."""
    data = path.read_bytes()
    if path.name == "trace.csv":
        rows = [line.split(",") for line in data.decode().splitlines()]
        if rows and "seconds" in rows[0]:
            k = rows[0].index("seconds")
            data = "".join(",".join(r[:k] + r[k + 1:]) + "\n" for r in rows).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scratch", default=None,
                   help="directory for the runs' outputs (default: a fresh temporary one)")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    from airykam import cli

    with contextlib.ExitStack() as stack:
        scratch = Path(args.scratch or stack.enter_context(tempfile.TemporaryDirectory()))
        for label, cli_args in runs():
            out = scratch / label
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(cli_args + ["--out", str(out)])
            print(f"{label}: exit {rc}")
            for f in sorted(out.glob("*")) if out.is_dir() else []:
                print(f"  {f.name} {digest(f)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
