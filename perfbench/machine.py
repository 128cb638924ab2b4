"""Print the machine facts a baseline is recorded with, as JSON.

    python3 perfbench/machine.py
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import json
import os
import platform

import numpy as np


def _proc_field(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "ram_gb": round(int(mem_kb.split()[0]) / 2**20, 1) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": importlib.util.find_spec("numba") is not None,
    }


if __name__ == "__main__":
    print(json.dumps(machine_info(), indent=2))
