"""One full symplectic change of variables and its transport of operators.

The transform factors as T = T1 o T2 o T3 (translation applied to the
function first, x-diffeomorphism last):

    T1 v = (1 + alpha_x) v(phi, x + alpha(phi, x))     kills the x-dependence
                                                       of the third-order term,
    T2 v = v(phi + omega beta(phi), x)                 kills its phi-dependence,
    T3 v = v(phi, x + p(phi))                          normalizes the x-average
                                                       of the first-order term.

With this factor order the conjugation r T^{-1} (L + Q') T reproduces the
stage-by-stage coefficient formulas exactly, and the combined map still has
the normal form (1 + xi_x) v(phi + omega beta, x + xi + p~) with xi = alpha
and p~ the transported translation.

The first stage is transported in closed form by the chain rule.  Write
J = 1 + alpha_x, C_psi f = f(phi, y + alpha~), jac_t = 1 + alpha~_y and
g = C_psi(J) = 1 / jac_t, and let p3..p0 be the coefficients of L + Q'.  Then
J^{-1} p_k dx^k J = J^{-1} sum_m C(k, m) p_k (dx^{k-m} J) dx^m,
C_psi dx C_phi = g dy and
C_psi J^{-1} om.d_phi J C_phi = om.d_phi + C_psi(om.d_phi alpha) dy + jac_t C_psi(om.d_phi J)
give, with (g dy)^2 = g^2 dy^2 + g g' dy,
(g dy)^3 = g^3 dy^3 + 3 g^2 g' dy^2 + (g g'^2 + g^2 g'') dy and the factor
C_psi J^{-1} = jac_t C_psi cancelling one power of g,

    R_m = C_psi(r_m),  r_m = sum_{k>=m} C(k, m) p_k dx^{k-m} J
                           (+ om.d_phi alpha for m = 1, + om.d_phi J for m = 0),
    e3 = R3 g^2,
    e2 = g (R2 + 3 R3 g'),
    e1 = R1 + R2 g' + R3 (g'^2 + g g''),
    e0 = jac_t R0.

The quadratic table is transported pointwise (``push_quadratic``).  The
chain rule gives dx^i(T v) = sum_l G_{l,i} (dy^l v) with polynomials G in
J and its x-derivatives, so every new coefficient r T^{-1}[ sum q_{i,j}
G_{l,i} G_{m,j} / J ] is a pointwise function of the moved q_{i,j} and
dx^k alpha.  One substitution pass moves them and forms the table at the
moved points, truncating each new coefficient once.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from math import comb

import numpy as np

from ._grid import (
    _real_grid_values,
    invert_phi_shift,
    invert_x_diffeo,
    moser_compose,
    substitute,
    substitute_inverse,
)
from .analytic import (
    AnalyticFunction,
    ScalarSeries,
    dx,
    dx_inv,
    mean_phi_x,
    multiply,
    om_dphi,
    om_dphi_inv,
    pi0,
    pi0_perp,
)
from .lattice import get_enumeration
from .opalg import DifferentialOperator

__all__ = [
    "TransformationData",
    "QuadraticPerturbation",
    "QuadraticForm",
    "QUADRATIC_KEYS",
    "moser_power",
    "build_x_diffeo",
    "build_time_reparam",
    "build_translation",
    "conjugate_step",
    "ConjugationResult",
    "push_quadratic",
    "evaluate_quadratic",
    "linearize_quadratic",
    "apply_transform",
    "apply_transform_inverse",
    "homological_identity_residuals",
    "symplectic_pairing",
]

log = logging.getLogger(__name__)

QUADRATIC_KEYS = tuple(
    (i, j) for i in range(3) for j in range(4) if i + j <= 4
)


@dataclass
class TransformationData:
    """Payload of one change of variables, including the inverses."""

    omega: np.ndarray
    alpha: AnalyticFunction
    alpha_tilde: AnalyticFunction
    beta: AnalyticFunction
    beta_tilde: AnalyticFunction
    p: AnalyticFunction
    r: AnalyticFunction
    m3: AnalyticFunction
    lambda3_plus: float
    lambda1_plus: float


@dataclass
class QuadraticPerturbation:
    """Coefficients d3 dx^3 + d2 dx^2 + d1 dx + d0 of a linearized quadratic term."""

    d3: AnalyticFunction
    d2: AnalyticFunction
    d1: AnalyticFunction
    d0: AnalyticFunction

    def hamiltonian_defect(self) -> float:
        """Norm of d2 - 2 dx(d3); zero for a Hamiltonian linearization."""
        return (self.d2 - 2.0 * dx(self.d3, 1)).norm(0.0)


class QuadraticForm:
    """Q(u) = sum q_{i,j} (dx^i u)(dx^j u) over 0<=i<=2, 0<=j<=3, i+j<=4."""

    def __init__(self, lattice, jmax, coeffs=None):
        self.lattice = lattice
        self.jmax = int(jmax)
        self.coeffs = {}
        for key, fct in (coeffs or {}).items():
            key = (int(key[0]), int(key[1]))
            if key not in QUADRATIC_KEYS:
                raise ValueError(f"index {key} outside the quadratic table")
            if not fct.is_zero():
                self.coeffs[key] = fct

    def total_norm(self, sigma: float) -> float:
        return sum(f.norm(sigma) for f in self.coeffs.values())

    def restrict(self, jmax: int) -> "QuadraticForm":
        """Q with every coefficient restricted to the x-modes |j| <= jmax."""
        return QuadraticForm(self.lattice, jmax,
                             {key: f.restrict(jmax) for key, f in self.coeffs.items()})

    def __repr__(self):
        return f"QuadraticForm({sorted(self.coeffs)})"


def _x_derivatives(Q: QuadraticForm, u: AnalyticFunction) -> dict:
    """{k: dx^k u} for every order k that a coefficient of Q uses (dx^0 u = u)."""
    return {k: u if k == 0 else dx(u, k) for k in {k for key in Q.coeffs for k in key}}


def evaluate_quadratic(Q: QuadraticForm, u: AnalyticFunction) -> AnalyticFunction:
    """Q(u) as a function.

    The product (dx^i u)(dx^j u) is formed once, in the order of the first of
    the keys (i, j) and (j, i) that Q holds, and serves both.
    """
    der = _x_derivatives(Q, u)
    products = {}
    out = AnalyticFunction.zeros(Q.lattice, Q.jmax)
    for (i, j), q in Q.coeffs.items():
        pair = (min(i, j), max(i, j))
        if pair not in products:
            products[pair] = multiply(der[i], der[j])
        out = out + multiply(q, products[pair])
    return out


def linearize_quadratic(Q: QuadraticForm, h: AnalyticFunction) -> QuadraticPerturbation:
    """Coefficients of v -> sum q_{i,j} [(dx^i h)(dx^j v) + (dx^i v)(dx^j h)]."""
    der = _x_derivatives(Q, h)
    d = {m: AnalyticFunction.zeros(Q.lattice, Q.jmax) for m in range(4)}
    for (i, j), q in Q.coeffs.items():
        d[j] = d[j] + multiply(q, der[i])
        d[i] = d[i] + multiply(q, der[j])
    return QuadraticPerturbation(d3=d[3], d2=d[2], d1=d[1], d0=d[0])


def _drop_mean(f: AnalyticFunction) -> AnalyticFunction:
    """Remove the (l, j) = (0, 0) coefficient exactly."""
    out = f.data.copy()
    out[0, f.jmax] = 0.0
    return AnalyticFunction.from_array(f.lattice, f.jmax, out)


def moser_power(f: AnalyticFunction, exponent: float, label="") -> AnalyticFunction:
    """f^exponent for f near a positive constant, via grid composition."""
    c0 = complex(mean_phi_x(f)).real
    if c0 <= 0:
        raise ValueError("grid power requires a positive mean")
    dev = f - c0
    series = ScalarSeries(lambda z: (c0 + z) ** float(exponent), 0.9 * c0, label or f"pow{exponent}")
    return moser_compose(series, dev)


# -- stage builders -----------------------------------------------------------


def build_x_diffeo(lambda3: float, d3: AnalyticFunction, report=None):
    """alpha and m3 with (lambda3 + d3)(1 + alpha_x)^3 = m3(phi).

    alpha = dx^{-1}[ m3^{1/3} / (lambda3 + d3)^{1/3} - 1 ],
    m3(phi) = ( (1/2pi) int dx / (lambda3 + d3)^{1/3} )^{-3}.
    """
    lat, jmax = d3.lattice, d3.jmax
    series = ScalarSeries(lambda z: (lambda3 + z) ** (-1.0 / 3.0), 0.9 * lambda3, "inv-cbrt")
    c = moser_compose(series, d3)          # (lambda3 + d3)^{-1/3}
    w = pi0(c)                             # its x-average, a function of phi
    m3 = moser_power(w, -3.0, "x-average^-3")
    m3_cbrt = moser_power(w, -1.0, "x-average^-1")   # = m3^{1/3}
    integrand = multiply(m3_cbrt, c) - 1.0
    mean_defect = pi0(integrand).norm(0.0)
    alpha = dx_inv(pi0_perp(integrand))
    if report is not None:
        report["x_average_defect"] = mean_defect
    return alpha, m3


def build_time_reparam(m3: AnalyticFunction, omega, gbar: float):
    """lambda3+ = phi-average of m3 and beta solving lambda3+ (1 + om.d_phi beta) = m3."""
    lam = complex(mean_phi_x(m3)).real
    if lam <= 0:
        raise ValueError("third-order coefficient lost positivity")
    ratio = _drop_mean(m3 * (1.0 / lam))
    beta = om_dphi_inv(ratio, omega, gbar)
    return lam, beta


def build_translation(c1: AnalyticFunction, a1: AnalyticFunction, lambda1: float,
                      omega, gbar: float):
    """p removing the phi-dependence of the x-average of the first-order term.

    p = (om.d_phi)^{-1} [ <c1 - a1>_{phi,x} - x-average(c1 - a1) ] and
    lambda1+ = lambda1 + <c1 - a1>_{phi,x}.
    """
    w = pi0(c1 - a1)
    mean = complex(mean_phi_x(w)).real
    rhs = _drop_mean(-w)
    p = om_dphi_inv(rhs, omega, gbar)
    return p, lambda1 + mean


# -- closed-form transport of the first stage ------------------------------------


def _transported_coefficients(L: DifferentialOperator, qp: QuadraticPerturbation,
                              alpha, alpha_tilde, report=None):
    """Coefficients e3..e0 of T1^{-1} (L + Q') T1 = om.d_phi + sum e_m dx^m,
    by the chain rule (module docstring): five compositions with alpha~, in
    one substitution pass."""
    p = [L.C + qp.d0, L.B + qp.d1, qp.d2, qp.d3 + L.lambda3]
    djac = [1.0 + dx(alpha, 1)] + [dx(alpha, k + 1) for k in range(1, 4)]   # dx^k J
    r = [sum(comb(k, m) * multiply(p[k], djac[k - m]) for k in range(m, 4)) for m in range(4)]
    r[1] = r[1] + om_dphi(alpha, L.omega)
    r[0] = r[0] + om_dphi(djac[0], L.omega)
    *R, g = substitute_inverse(r + [djac[0]], alpha_tilde, None, None, L.omega, report=report)
    g1, g2 = dx(g, 1), dx(g, 2)
    e3 = multiply(R[3], multiply(g, g))
    e2 = multiply(g, R[2] + 3.0 * multiply(R[3], g1))
    e1 = R[1] + multiply(R[2], g1) + multiply(R[3], multiply(g1, g1) + multiply(g, g2))
    e0 = multiply(1.0 + dx(alpha_tilde, 1), R[0])
    return e3, e2, e1, e0


# -- the full step -------------------------------------------------------------


@dataclass
class ConjugationResult:
    transform: TransformationData
    L_plus: DifferentialOperator
    report: dict = field(default_factory=dict)


def conjugate_step(L: DifferentialOperator, qp: QuadraticPerturbation,
                   gbar: float, report=None) -> ConjugationResult:
    """Build T with r T^{-1} (L + Q') T = om.d_phi + lambda3+ dx^3 + a1+ dx + a0+.

    Preconditions: the x-average of L.B is phi-independent and Q' is
    Hamiltonian (d2 = 2 dx d3 -- its defect is recorded).  Stage residuals
    land in the report, each grid inversion's aliasing and Picard residuals
    under its own key (``invert_x_diffeo``, ``invert_phi_shift``), and so does
    the Hamiltonian defect |a0+ - dx a1+|_0 of L_plus
    (``operator_hamiltonian_defect``), and the largest aliasing and discarded
    shares of its substitution passes (``max_alias_rel``, ``max_discard_rel``).
    """
    rep = {} if report is None else report
    om = L.omega
    lam1 = L.lambda1()
    rep["hamiltonian_defect"] = qp.hamiltonian_defect()

    alpha, m3 = build_x_diffeo(L.lambda3, qp.d3, report=rep)
    alpha_tilde = invert_x_diffeo(alpha, report=rep.setdefault("invert_x_diffeo", {}))
    e3, e2, e1, e0 = _transported_coefficients(L, qp, alpha, alpha_tilde, report=rep)
    rep["b2_norm"] = e2.norm(0.0)
    rep["third_order_defect"] = (e3 - m3).norm(0.0)

    lam3p, beta = build_time_reparam(m3, om, gbar)
    beta_tilde = invert_phi_shift(beta, om, report=rep.setdefault("invert_phi_shift", {}))
    t2inv_m3, t2inv_e1, t2inv_e0 = substitute_inverse([m3, e1, e0], None, beta_tilde, None, om,
                                                      report=rep)
    r = lam3p * moser_power(t2inv_m3, -1.0, "reciprocal")
    c1 = multiply(r, t2inv_e1)
    c0 = multiply(r, t2inv_e0)

    p, lam1p = build_translation(c1, L.B, lam1, om, gbar)
    t3inv_c1, a0p = substitute_inverse([c1, c0], None, None, p, om, report=rep)
    a1p = om_dphi(p, om) + t3inv_c1

    T = TransformationData(om, alpha, alpha_tilde, beta, beta_tilde, p, r, m3, lam3p, lam1p)
    L_plus = DifferentialOperator(om, lam3p, a1p, a0p)
    rep["operator_hamiltonian_defect"] = (a0p - dx(a1p, 1)).norm(0.0)
    rep.update(homological_identity_residuals(T, L.lambda3, qp.d3))
    log.debug("conjugate_step report: %s", rep)
    return ConjugationResult(T, L_plus, rep)


def homological_identity_residuals(T: TransformationData, lambda3: float,
                                   d3: AnalyticFunction) -> dict:
    """The three defining identities of the transform, as residual norms."""
    jac = 1.0 + dx(T.alpha, 1)
    cube = multiply(jac, multiply(jac, jac))
    id1 = (multiply(d3 + lambda3, cube) - T.m3).norm(0.0)
    reparam = 1.0 + om_dphi(T.beta, T.omega)
    id2 = (T.lambda3_plus * reparam - T.m3).norm(0.0)
    (moved,) = substitute_inverse([reparam], None, T.beta_tilde, None, T.omega)
    id3 = (multiply(T.r, moved) - 1.0).norm(0.0)
    return {
        "identity_x_diffeo": id1,
        "identity_time_reparam": id2,
        "identity_multiplier": id3,
    }


# -- applying the transform ----------------------------------------------------


def apply_transform(T: TransformationData, u: AnalyticFunction) -> AnalyticFunction:
    """T u = T1(T2(T3 u)): one substitution pass, then the factor 1 + alpha_x."""
    (w,) = substitute([u], T.alpha, T.beta, T.p, T.omega)
    return w if T.alpha.is_zero() else multiply(1.0 + dx(T.alpha, 1), w)


def apply_transform_inverse(T: TransformationData, u: AnalyticFunction,
                            report=None) -> AnalyticFunction:
    """T^{-1} u = T3^{-1}(T2^{-1}(T1^{-1} u)).

    T1^{-1} multiplies by 1 + alpha~_x between the x-diffeomorphism and the
    rest, as a product of truncated series, so this takes two substitution
    passes: the same factor taken pointwise inside one pass moved the final
    residual l1 at omega seed 7 by 5e-16 on solve_m2 and 1.4e-14 on solve_m3.
    """
    if T.alpha.is_zero():
        (w,) = substitute_inverse([u], None, T.beta_tilde, T.p, T.omega, report=report)
        return w
    (moved,) = substitute_inverse([u], T.alpha_tilde, None, None, T.omega, report=report)
    (w,) = substitute_inverse([multiply(1.0 + dx(T.alpha_tilde, 1), moved)], None, T.beta_tilde,
                              T.p, T.omega, report=report)
    return w


def _jacobian_factors(l: int, i: int, J):
    """G_{l,i} of dx^i(T v) = sum_l G_{l,i} (dy^l v) for 0 <= l <= i <= 3,
    pointwise from J = (J_0, ..., J_3), the values of 1 + alpha_x and of its
    x-derivatives of orders 1-3: the recurrence G_{0,0} = J_0,
    G_{l,i+1} = dx G_{l,i} + G_{l-1,i} J_0 written out."""
    J0, J1, J2 = J[0], J[1], J[2]
    if l == 0:
        return J[i]
    if l == i:                                  # J_0^(i+1)
        out = J0 * J0
        for _ in range(1, i):
            out *= J0
        return out
    if l == 1:
        return 3.0 * J0 * J1 if i == 2 else 3.0 * J1 * J1 + 4.0 * J0 * J2
    return 6.0 * J0 * J0 * J1                   # G_{2,3}


def _add_terms(acc, w, i, j, J):
    """Add w G_{l,i} G_{m,j} at grid points (``_jacobian_factors``) to
    acc[(l, m)] for every l <= i and m <= j, yielding each (l, m) once its
    term is in: m from j down, and l up for each m.  Each G_{m,j} is formed
    once, and the cheaper G_{l,i} (i <= 2) once for each m."""
    for m in range(j, -1, -1):
        wm = w * _jacobian_factors(m, j, J)
        for l in range(i + 1):
            if (l, m) in acc:
                acc[(l, m)] += wm * _jacobian_factors(l, i, J)
            else:
                acc[(l, m)] = wm * _jacobian_factors(l, i, J)
            yield l, m


def push_quadratic(Q: QuadraticForm, T: TransformationData, report=None) -> QuadraticForm:
    """Transport Q(v) -> r T^{-1} Q(T v) in coefficient form.

    With dx^i(Tv) = sum_l G_{l,i} (dy^l v) (``_jacobian_factors``) the new
    table is q+_{l,m} = r S^{-1}[ (sum_{i,j} q_{i,j} G_{l,i} G_{m,j}) / (1 + alpha_x) ],
    S^{-1} the substitution part of T^{-1}.  Substitution commutes with
    pointwise products, so one pass of ``_grid.substitute_inverse`` moves the
    q_{i,j} and dx^k alpha (k = 1..4) and forms the sum at the moved points,
    and r, a function of phi alone, multiplies it where it lands.  The q_{i,j}
    are drawn one at a time, and each q+_{l,m} is extracted as soon as the
    last q_{i,j} with i >= l and j >= m is in (``report`` as in
    ``_grid.substitute_inverse``).
    """
    if not T.r.phi_only:
        raise ValueError("the multiplier r must be a function of phi alone")
    # Row by row, each row from its highest order down (and the terms of a key
    # as in _add_terms): of the orders tried, the one that holds the fewest
    # partial sums at once, 6 for the full table and for solve's first table.
    keys = sorted((key for key in QUADRATIC_KEYS if key in Q.coeffs), key=lambda k: (k[0], -k[1]))
    if not keys:
        return QuadraticForm(Q.lattice, Q.jmax)
    last = {}                      # (l, m) -> the position of the last key adding to it
    for n, (i, j) in enumerate(keys):
        for out_key in itertools.product(range(i + 1), range(j + 1)):
            last[out_key] = n
    done = []

    def combine(moved, sizes):
        J = [1.0 + next(moved)] + [next(moved) for _ in range(3)]
        r = _real_grid_values(T.r, sizes[:-1] + (1,))
        acc = {}
        for n, (i, j) in enumerate(keys):
            for out_key in _add_terms(acc, next(moved) * r / J[0], i, j, J):
                if last[out_key] == n:
                    done.append(out_key)
                    yield acc.pop(out_key)

    derivs = [dx(T.alpha, k) for k in range(1, 5)]
    moved = substitute_inverse(derivs + [Q.coeffs[key] for key in keys], T.alpha_tilde,
                               T.beta_tilde, T.p, T.omega, report=report, combine=combine)
    table = dict(zip(done, moved))
    return QuadraticForm(Q.lattice, Q.jmax, {key: table[key] for key in sorted(table)})


# -- verification helpers ------------------------------------------------------


def symplectic_pairing(u: AnalyticFunction, v: AnalyticFunction) -> complex:
    """< dx^{-1} u, v > averaged over phi and x, on the zero-average parts."""
    ui = dx_inv(pi0_perp(u))
    mirror = v.data[get_enumeration(v.lattice).neg, ::-1]     # v(-l, -j)
    return complex(np.sum(ui.data * mirror))
