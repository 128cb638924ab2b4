"""Independent reference computations shared by the test modules.

Kept out of conftest.py so that test modules import them by a name no other
test directory uses.
"""

import numpy as np

from airykam.analytic import (
    AnalyticFunction,
    compose_phi_shift,
    compose_x_diffeo,
    compose_x_translation,
    dx,
    multiply,
    om_dphi,
)
from airykam.lattice import get_enumeration
from airykam.opalg import compose, materialize, mult_op, to_dense, x_symbol_op


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


def dx_inv_op(lattice, jmax):
    """dx^{-1} on the zero-average functions, as an operator matrix."""
    return x_symbol_op(lattice, jmax, lambda j: 1.0 / (1j * j))


def dx3_commutator(g):
    """Closed form of [dx^3, pi0_perp g dx^{-1}] = mult(3 g_x) dx + remainder.

    Returns (3 g_x, remainder) with remainder = pi0_perp(3 g_xx + g_xxx dx^{-1});
    on the zero-average basis the pi0(g_x dx) piece has no matrix entries.
    """
    if not g.zero_x_average:
        raise ValueError("generator amplitude must have zero x-average")
    leading = 3.0 * dx(g, 1)
    rem = mult_op(3.0 * dx(g, 2)) + compose(mult_op(dx(g, 3)), dx_inv_op(g.lattice, g.jmax))
    return leading, rem


def inverse_chain(u, alpha_tilde, beta_tilde, p, omega, jacobian=False):
    """T^{-1} u by the three single-field kernels, one after the other:
    u(phi, x + alpha~), times 1 + alpha~_x with ``jacobian``, then the phase
    shift by beta~ and the translation by -p.  Zero amplitudes are skipped."""
    w = u
    if not alpha_tilde.is_zero():
        w = compose_x_diffeo(w, alpha_tilde)
        if jacobian:
            w = multiply(1.0 + dx(alpha_tilde, 1), w)
    if not beta_tilde.is_zero():
        w = compose_phi_shift(w, beta_tilde, omega)
    if not p.is_zero():
        w = compose_x_translation(w, -p)
    return w


def forward_chain(u, alpha, beta, p, omega, jacobian=False):
    """T u by the three single-field kernels: the translation by p, the phase
    shift by beta, then u(phi, x + alpha), times 1 + alpha_x with
    ``jacobian``.  Zero amplitudes are skipped."""
    w = u
    if not p.is_zero():
        w = compose_x_translation(w, p)
    if not beta.is_zero():
        w = compose_phi_shift(w, beta, omega)
    if not alpha.is_zero():
        w = compose_x_diffeo(w, alpha)
        if jacobian:
            w = multiply(1.0 + dx(alpha, 1), w)
    return w
