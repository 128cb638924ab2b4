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

The first conjugation stage is evaluated by probing the transformed operator
on the pure modes e^{i k y}, k = 1..4, and solving the resulting Vandermonde
system for the coefficient functions; that picks up every chain-rule term
without hand-derived formulas and is verified a posteriori by a materialized
residual on an interior window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    AnalyticFunction,
    ScalarSeries,
    compose_phi_shift,
    compose_x_diffeo,
    compose_x_translation,
    dx,
    dx_inv,
    invert_phi_shift,
    invert_x_diffeo,
    linear_combination,
    mean_phi_x,
    moser_compose,
    multiply,
    om_dphi,
    om_dphi_inv,
    pi0,
    pi0_perp,
)
from .lattice import MultiIndex
from .opalg import DifferentialOperator, dense_labels, materialize, to_dense

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
    "apply_substitution_inverse",
    "homological_identity_residuals",
    "symplectic_pairing",
    "conjugation_dense_residual",
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

    @classmethod
    def identity(cls, lattice, jmax, omega, lambda3=1.0, lambda1=0.0):
        zero = AnalyticFunction.zeros(lattice, jmax)
        one = AnalyticFunction.constant(lattice, jmax, 1.0)
        m3 = AnalyticFunction.constant(lattice, jmax, lambda3)
        return cls(np.asarray(omega, float), zero, zero, zero, zero, zero,
                   one, m3, lambda3, lambda1)


@dataclass
class QuadraticPerturbation:
    """Coefficients d3 dx^3 + d2 dx^2 + d1 dx + d0 of a linearized quadratic term."""

    d3: AnalyticFunction
    d2: AnalyticFunction
    d1: AnalyticFunction
    d0: AnalyticFunction

    def norm(self, sigma: float) -> float:
        return sum(getattr(self, k).norm(sigma) for k in ("d3", "d2", "d1", "d0"))

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
            if fct.coeffs:
                self.coeffs[key] = fct

    def get(self, i, j):
        f = self.coeffs.get((i, j))
        return f if f is not None else AnalyticFunction.zeros(self.lattice, self.jmax)

    def total_norm(self, sigma: float) -> float:
        return sum(f.norm(sigma) for f in self.coeffs.values())

    def __repr__(self):
        return f"QuadraticForm({sorted(self.coeffs)})"


def evaluate_quadratic(Q: QuadraticForm, u: AnalyticFunction) -> AnalyticFunction:
    """Q(u) as a function."""
    ders = {}

    def der(k):
        if k not in ders:
            ders[k] = u if k == 0 else dx(u, k)
        return ders[k]

    out = AnalyticFunction.zeros(Q.lattice, Q.jmax)
    for (i, j), q in Q.coeffs.items():
        out = out + multiply(q, multiply(der(i), der(j)))
    return out


def linearize_quadratic(Q: QuadraticForm, h: AnalyticFunction) -> QuadraticPerturbation:
    """Coefficients of v -> sum q_{i,j} [(dx^i h)(dx^j v) + (dx^i v)(dx^j h)]."""
    ders = {}

    def der(k):
        if k not in ders:
            ders[k] = h if k == 0 else dx(h, k)
        return ders[k]

    d = {m: AnalyticFunction.zeros(Q.lattice, Q.jmax) for m in range(4)}
    for (i, j), q in Q.coeffs.items():
        d[j] = d[j] + multiply(q, der(i))
        d[i] = d[i] + multiply(q, der(j))
    return QuadraticPerturbation(d3=d[3], d2=d[2], d1=d[1], d0=d[0])


def _drop_mean(f: AnalyticFunction) -> AnalyticFunction:
    """Remove the (l, j) = (0, 0) coefficient exactly."""
    out = {k: c for k, c in f.coeffs.items() if k != (MultiIndex.zero(), 0)}
    return AnalyticFunction(f.lattice, f.jmax, out, real=f.real)


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


# -- probe-based transport of the first stage ---------------------------------


def _perturbed_operator(L: DifferentialOperator, qp: QuadraticPerturbation):
    """u -> (L + Q') u with all four orders, unprojected.

    That is om.d_phi u + (lambda3 + d3) u_xxx + d2 u_xx + (B + d1) u_x + (C + d0) u;
    unlike DifferentialOperator.apply it keeps the x-average of the result.
    """
    p3 = qp.d3 + L.lambda3
    lower = [(p, m) for p, m in ((qp.d2, 2), (L.B + qp.d1, 1), (L.C + qp.d0, 0))
             if p.coeffs]

    def apply(u):
        out = om_dphi(u, L.omega) + multiply(p3, dx(u, 3))
        for p, m in lower:
            out = out + multiply(p, dx(u, m) if m else u)
        return out

    return apply


def _mode_shift(u: AnalyticFunction, s: int) -> AnalyticFunction:
    """Multiply by e^{i s x}: (l, j) -> (l, j + s), dropping the fallen band."""
    out = {}
    for (l, j), c in u.coeffs.items():
        if abs(j + s) <= u.jmax:
            out[(l, j + s)] = c
    return AnalyticFunction(u.lattice, u.jmax, out, real=False)


def _transported_coefficients(L: DifferentialOperator, qp: QuadraticPerturbation,
                              alpha, alpha_tilde, report=None):
    """Coefficients e3..e0 of T1^{-1} (L + Q') T1 = om.d_phi + sum e_m dx^m.

    Probes the conjugated operator on e^{iky}, k = 1..4, and solves the
    4x4 Vandermonde system in (ik)^m for the coefficient functions.
    """
    lat, jmax = L.lattice, L.jmax
    jac = 1.0 + dx(alpha, 1)
    jac_t = 1.0 + dx(alpha_tilde, 1)
    l0q_apply = _perturbed_operator(L, qp)

    probes = []
    for k in range(1, 5):
        e = AnalyticFunction(lat, jmax, {(MultiIndex.zero(), k): 1.0 + 0j}, real=False)
        w = multiply(jac, compose_x_diffeo(e, alpha))
        w = l0q_apply(w)
        w = multiply(jac_t, compose_x_diffeo(w, alpha_tilde))
        probes.append(_mode_shift(w, -k))

    V = np.array([[(1j * k) ** m for m in range(4)] for k in range(1, 5)])
    Vinv = np.linalg.inv(V)
    coeffs = []
    sym_defect = 0.0
    for m in range(4):
        em = linear_combination(probes, Vinv[m], real=False)
        sym_defect = max(sym_defect, em.conjugate_symmetry_residual())
        coeffs.append(AnalyticFunction(lat, jmax, em.coeffs, real=True))
    if report is not None:
        report["probe_symmetry_defect"] = sym_defect
    e0, e1, e2, e3 = coeffs
    return e3, e2, e1, e0


# -- the full step -------------------------------------------------------------


@dataclass
class ConjugationResult:
    transform: TransformationData
    L_plus: DifferentialOperator
    report: dict = field(default_factory=dict)


def conjugate_step(L: DifferentialOperator, qp: QuadraticPerturbation, omega,
                   gbar: float, report=None) -> ConjugationResult:
    """Build T with r T^{-1} (L + Q') T = om.d_phi + lambda3+ dx^3 + a1+ dx + a0+.

    Preconditions: the x-average of L.B is phi-independent and Q' is
    Hamiltonian (d2 = 2 dx d3 -- its defect is recorded).  Stage residuals
    land in the report; use conjugation_dense_residual for the a-posteriori
    materialized check.
    """
    rep = {} if report is None else report
    om = np.asarray(omega, dtype=float)
    lam1 = L.lambda1()
    rep["hamiltonian_defect"] = qp.hamiltonian_defect()

    alpha, m3 = build_x_diffeo(L.lambda3, qp.d3, report=rep)
    alpha_tilde = invert_x_diffeo(alpha, report=rep)
    e3, e2, e1, e0 = _transported_coefficients(L, qp, alpha, alpha_tilde, report=rep)
    rep["b2_norm"] = e2.norm(0.0)
    rep["third_order_defect"] = (e3 - m3).norm(0.0)

    lam3p, beta = build_time_reparam(m3, om, gbar)
    beta_tilde = invert_phi_shift(beta, om, report=rep)
    t2inv_m3 = compose_phi_shift(m3, beta_tilde, om)
    r = lam3p * moser_power(t2inv_m3, -1.0, "reciprocal")
    c1 = multiply(r, compose_phi_shift(e1, beta_tilde, om))
    c0 = multiply(r, compose_phi_shift(e0, beta_tilde, om))

    p, lam1p = build_translation(c1, L.B, lam1, om, gbar)
    a1p = om_dphi(p, om) + compose_x_translation(c1, -p)
    a0p = compose_x_translation(c0, -p)

    T = TransformationData(om, alpha, alpha_tilde, beta, beta_tilde, p, r, m3, lam3p, lam1p)
    L_plus = DifferentialOperator(om, lam3p, a1p, a0p)
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
    id3 = (multiply(T.r, compose_phi_shift(reparam, T.beta_tilde, T.omega)) - 1.0).norm(0.0)
    return {
        "identity_x_diffeo": id1,
        "identity_time_reparam": id2,
        "identity_multiplier": id3,
    }


# -- applying the transform ----------------------------------------------------


def apply_transform(T: TransformationData, u: AnalyticFunction) -> AnalyticFunction:
    """T u = T1(T2(T3 u))."""
    w = compose_x_translation(u, T.p) if T.p.coeffs else u
    if T.beta.coeffs:
        w = compose_phi_shift(w, T.beta, T.omega)
    if T.alpha.coeffs:
        w = multiply(1.0 + dx(T.alpha, 1), compose_x_diffeo(w, T.alpha))
    return w


def apply_transform_inverse(T: TransformationData, u: AnalyticFunction) -> AnalyticFunction:
    """T^{-1} u = T3^{-1}(T2^{-1}(T1^{-1} u))."""
    w = u
    if T.alpha.coeffs:
        w = multiply(1.0 + dx(T.alpha_tilde, 1), compose_x_diffeo(w, T.alpha_tilde))
    if T.beta.coeffs:
        w = compose_phi_shift(w, T.beta_tilde, T.omega)
    if T.p.coeffs:
        w = compose_x_translation(w, -T.p)
    return w


def apply_substitution_inverse(T: TransformationData, u: AnalyticFunction) -> AnalyticFunction:
    """The substitution part of T^{-1} (no Jacobian prefactor), for scalars."""
    w = u
    if T.alpha.coeffs:
        w = compose_x_diffeo(w, T.alpha_tilde)
    if T.beta.coeffs:
        w = compose_phi_shift(w, T.beta_tilde, T.omega)
    if T.p.coeffs:
        w = compose_x_translation(w, -T.p)
    return w


def push_quadratic(Q: QuadraticForm, T: TransformationData) -> QuadraticForm:
    """Transport Q(v) -> r T^{-1} Q(T v) in coefficient form.

    Writing dx^i(Tv) = sum_l G_{l,i} (dy^l v) with G_{0,0} = 1 + alpha_x and
    G_{l,i+1} = dx G_{l,i} + G_{l-1,i} (1 + alpha_x), the new table is
    q+_{l,m} = r S^{-1}[ (sum_{i,j} q_{i,j} G_{l,i} G_{m,j}) / (1 + alpha_x) ]
    with S^{-1} the substitution part of T^{-1}.
    """
    jac = 1.0 + dx(T.alpha, 1)
    jac_inv = moser_power(jac, -1.0, "jacobian-reciprocal")
    G = {(0, 0): jac}
    for i in range(4):
        for l in range(i + 2):
            term = AnalyticFunction.zeros(Q.lattice, Q.jmax)
            prev = G.get((l, i))
            if prev is not None:
                term = term + dx(prev, 1)
            below = G.get((l - 1, i))
            if below is not None:
                term = term + multiply(below, jac)
            if term.coeffs:
                G[(l, i + 1)] = term

    out = {}
    for (i, j), q in Q.coeffs.items():
        for l in range(i + 1):
            gl = G.get((l, i))
            if gl is None:
                continue
            for m in range(j + 1):
                gm = G.get((m, j))
                if gm is None:
                    continue
                contrib = multiply(q, multiply(gl, gm))
                key = (l, m)
                out[key] = contrib if key not in out else out[key] + contrib
    table = {}
    for key, fct in out.items():
        moved = apply_substitution_inverse(T, multiply(fct, jac_inv))
        table[key] = multiply(T.r, moved)
    return QuadraticForm(Q.lattice, Q.jmax, table)


# -- verification helpers ------------------------------------------------------


def symplectic_pairing(u: AnalyticFunction, v: AnalyticFunction) -> complex:
    """< dx^{-1} u, v > averaged over phi and x, on the zero-average parts."""
    total = 0j
    ui = dx_inv(pi0_perp(u))
    for (l, j), c in ui.coeffs.items():
        total += c * v.get(-l, -j)
    return total


def conjugation_dense_residual(L: DifferentialOperator, qp: QuadraticPerturbation,
                               result: ConjugationResult, jwin: int, lwin: float) -> float:
    """Interior-window norm of r T^{-1}(L + Q')T - L_plus.

    The left side is assembled column by column by applying the transformed
    operator to basis modes inside the window; the difference is measured as
    the largest window-restricted column l1-norm.
    """
    from .lattice import eta_norm as _eta

    lat, jmax = L.lattice, L.jmax
    T = result.transform
    dense_plus = to_dense(materialize(result.L_plus))
    labels, _ = dense_labels(lat, jmax)
    col_of = {lab: idx for idx, lab in enumerate(labels)}
    eta = lat.eta
    inside = np.array(
        [abs(j) <= jwin and (not l or _eta(l, eta) <= lwin + 1e-12) for l, j in labels]
    )

    l0q_apply = _perturbed_operator(L, qp)
    worst = 0.0
    for col, (l, j) in enumerate(labels):
        if not inside[col]:
            continue
        e = AnalyticFunction(lat, jmax, {(l, j): 1.0 + 0j}, real=False)
        w = apply_transform(T, e)
        w = l0q_apply(w)
        w = multiply(T.r, apply_transform_inverse(T, w))
        lhs = np.zeros(len(labels), dtype=complex)
        for (lo, jo), c in w.coeffs.items():
            if jo != 0:
                lhs[col_of[(lo, jo)]] = c
        diff = np.abs(lhs - dense_plus[:, col]) * inside
        worst = max(worst, float(diff.sum()))
    return worst
