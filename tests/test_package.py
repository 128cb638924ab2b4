"""The package's layering: what importing a module loads, and what it exports."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import airykam

SRC = Path(airykam.__file__).resolve().parent.parent


def test_analytic_does_not_load_grid():
    """The grid kernels build on the spectral algebra, not the other way round."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import airykam.analytic; "
            "print('airykam._grid' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(airykam.__path__)))
def test_star_import(module):
    """Every name in a module's __all__ exists."""
    exec(f"from airykam.{module} import *", {})
