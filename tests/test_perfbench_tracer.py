"""The benchmark's span tracer (perfbench/tracer.py) on a real solve: its hooks
name airykam functions and bind their arguments, so they must follow the package."""

import importlib.util
import math
from pathlib import Path

from airykam import _grid, cli
from airykam.config import load_config, problem_spec_from

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_counts_residual_grid_points(tmp_path):
    found = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(found)
    found.loader.exec_module(tracer)
    config = ROOT / "configs" / "solve_small.cfg"
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tr.uninstall()
    spec = problem_spec_from(load_config(config))
    counts = tr.summary()
    calls = counts["nashmoser.residual.calls"]
    assert calls >= 1
    assert counts["nashmoser.residual.grid_points"] == \
        calls * math.prod(_grid.grid_sizes(spec.lattice, spec.jmax, 2))
