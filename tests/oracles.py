"""Independent reference computations shared by the test modules.

Kept out of conftest.py so that test modules import them by a name no other
test directory uses.
"""

import numpy as np

from airykam.analytic import AnalyticFunction, dx, multiply, om_dphi
from airykam.lattice import get_enumeration
from airykam.opalg import materialize, to_dense


def eval_pointwise(f, phis, xs):
    """Independent evaluation of a sparse series at arbitrary points."""
    m = f.lattice.M
    out = np.zeros(len(xs), dtype=complex)
    for (l, j), c in f.coeffs.items():
        d = np.asarray(l.dense(m), dtype=float)
        out = out + c * np.exp(1j * (phis @ d + j * xs))
    return out


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


def dense_operator(L):
    """Full matrix of L = omega.d_phi + lambda3 dx^3 + B dx + C over (l, j != 0),
    ordered as in to_dense: the bounded part plus i (omega.l) on the diagonal."""
    dots = get_enumeration(L.lattice).dots(L.omega)
    M = to_dense(materialize(L))
    n = len(M)
    M[np.arange(n), np.arange(n)] += np.repeat(1j * dots, 2 * L.jmax)
    return M
