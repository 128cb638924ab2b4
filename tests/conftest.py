import numpy as np
import pytest

from airykam.analytic import AnalyticFunction, dx, multiply, om_dphi
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


def eval_pointwise(f, phis, xs):
    """Independent evaluation of a sparse series at arbitrary points."""
    m = f.lattice.M
    out = np.zeros(len(xs), dtype=complex)
    for (l, j), c in f.coeffs.items():
        d = np.asarray(l.dense(m), dtype=float)
        out = out + c * np.exp(1j * (phis @ d + j * xs))
    return out


@pytest.fixture(scope="session")
def sample_points():
    rng = np.random.default_rng(1234)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=(40, 2))
    xs = rng.uniform(0.0, 2.0 * np.pi, size=40)
    return phis, xs


def real_parts(u):
    """The real fields a = (u + u*)/2 and b = (u - u*)/2i with u = a + i b."""
    return tuple(AnalyticFunction.from_array(u.lattice, u.jmax, d) for d in (u.data, -1j * u.data))


def by_real_parts(substitute, u):
    """substitute(u) for a non-real u = a + i b, as substitute(a) + i substitute(b);
    the grid kernels take real fields only."""
    a, b = (substitute(part) for part in real_parts(u))
    return AnalyticFunction.from_array(u.lattice, u.jmax, a.data + 1j * b.data, real=False)


def perturbed_operator(L, qp):
    """u -> (L + Q') u with all four orders, unprojected.

    That is om.d_phi u + (lambda3 + d3) u_xxx + d2 u_xx + (B + d1) u_x + (C + d0) u;
    unlike DifferentialOperator.apply it keeps the x-average of the result.
    """
    p3 = qp.d3 + L.lambda3
    lower = [(p, m) for p, m in ((qp.d2, 2), (L.B + qp.d1, 1), (L.C + qp.d0, 0))
             if not p.is_zero()]

    def apply(u):
        out = om_dphi(u, L.omega) + multiply(p3, dx(u, 3))
        for p, m in lower:
            out = out + multiply(p, dx(u, m) if m else u)
        return out

    return apply
