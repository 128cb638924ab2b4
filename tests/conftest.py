import numpy as np
import pytest

from airykam.analytic import AnalyticFunction
from airykam.lattice import LatticeParams, MultiIndex


@pytest.fixture(scope="session")
def lat2():
    return LatticeParams(1.0, 2, 6.0)


@pytest.fixture(scope="session")
def jmax():
    return 10


@pytest.fixture(scope="session")
def omega2():
    return np.array([1.2357, 1.7113])


@pytest.fixture
def rand_fct(lat2, jmax):
    """Factory for random real-on-real functions with interior support."""

    def make(seed, n_modes=6, amp=1.0, zero_x_avg=True, span=2, jspan=None):
        rng = np.random.default_rng(seed)
        jspan = jspan or max(2, jmax // 3)
        modes = []
        for _ in range(n_modes):
            entries = [int(rng.integers(-span, span + 1)), int(rng.integers(-1, 2))]
            l = MultiIndex(entries)
            lo = 1 if zero_x_avg else 0
            j = int(rng.integers(lo, jspan + 1))
            if j and rng.random() < 0.5:
                j = -j
            modes.append((l, j, amp * complex(rng.normal(), rng.normal())))
        return AnalyticFunction.from_modes(lat2, jmax, modes)

    return make


@pytest.fixture(scope="session")
def sample_points():
    rng = np.random.default_rng(1234)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=(40, 2))
    xs = rng.uniform(0.0, 2.0 * np.pi, size=40)
    return phis, xs
