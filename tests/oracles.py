"""Independent reference computations shared by the test modules.

Kept out of conftest.py so that test modules import them by a name no other
test directory uses.
"""

import math

import numpy as np

from airykam import nashmoser, opalg
from airykam._grid import (
    compose_phi_shift,
    compose_x_diffeo,
    compose_x_translation,
    substitute_inverse,
)
from airykam.analytic import AnalyticFunction, dx, multiply, om_dphi, to_payload
from airykam.conjugation import QuadraticForm, moser_power
from airykam.lattice import get_enumeration
from airykam.opalg import (
    commutator,
    compose,
    exp_conjugate,
    lie_series,
    materialize,
    mult_op,
    op_norm,
    phi_derivative,
    restrict,
    series_budget,
    to_dense,
    x_symbol_op,
)


def compare_reductions(red_a, red_b):
    """Deviations between two reductions on one truncation: ``omega_inf_sup``,
    the largest difference of the final frequencies Omega_inf(j) over j, and
    ``p_norm_diffs``, the differences of the remainder norm |P| step by step."""
    if red_a.lattice != red_b.lattice or red_a.jmax != red_b.jmax:
        raise ValueError("matching truncations required")
    steps = min(len(red_a.trace), len(red_b.trace))
    return {
        "omega_inf_sup": float(np.max(np.abs(red_a.omega_values() - red_b.omega_values()))),
        "p_norm_diffs": [abs(red_a.trace[k]["p_norm"] - red_b.trace[k]["p_norm"])
                         for k in range(steps)],
    }


def lie_series_scaled_after(G, X, start_factor=1):
    """``opalg.lie_series`` with each commutator scaled in a second pass over
    its blocks, commutator(term, G, b) * (1 / (k + start_factor)): the same
    series, stop rule and budgets."""
    lead = 1.0 / math.factorial(start_factor)
    first = X if lead == 1.0 else X * lead
    budget = series_budget(first)
    return opalg._series(first,
                         lambda term, k: (commutator(term, G, budget * (k + start_factor))
                                          * (1.0 / (k + start_factor))),
                         lambda term: op_norm(term, 0.0))


def two_series_offdiag(red, window):
    """``offdiag_residual`` of a reduction's verification window conjugated in
    two series per generator: e^{-G} conj e^{G} by ``exp_conjugate``, whose
    stop rule is relative to the dispersion, plus the Lie series of G's
    phi-derivative."""
    L = red.L
    conj = materialize(L)
    for gen in red.gens:
        conj = exp_conjugate(gen, conj) + lie_series(gen, phi_derivative(gen, L.omega))[0]
    vals = red.omega_values()
    D = x_symbol_op(L.lattice, L.jmax, lambda j: 1j * vals[j + L.jmax])
    delta = restrict(conj - D, *window)
    if 0 in delta.data:
        mismatch = np.diag(delta.data[0])
        delta = delta - x_symbol_op(L.lattice, L.jmax, lambda j: mismatch[j + L.jmax])
    return op_norm(delta, 0.0)


def eval_pointwise(f, phis, xs):
    """Independent evaluation of a sparse series at arbitrary points."""
    m = f.lattice.M
    out = np.zeros(len(xs), dtype=complex)
    for (l, j), c in f.coeffs.items():
        d = np.asarray(l.dense(m), dtype=float)
        out = out + c * np.exp(1j * (phis @ d + j * xs))
    return out


def real_parts(lattice, jmax, data):
    """The real functions a = (u + u*)/2 and b = (u - u*)/2i of a complex
    coefficient array u = a + i b on the truncation (lattice, jmax)."""
    return tuple(AnalyticFunction.from_array(lattice, jmax, d) for d in (data, -1j * data))


def by_real_parts(substitute, lattice, jmax, data):
    """The coefficient array of substitute(u) for a complex coefficient array
    u = a + i b, as substitute(a) + i substitute(b): a complex-linear map
    known by its action on real functions, the only kind there is."""
    a, b = (substitute(part) for part in real_parts(lattice, jmax, data))
    return a.data + 1j * b.data


def unit(lattice, jmax, p, j):
    """The coefficient array of the complex mode e^{i(l_p.phi + j x)}."""
    data = np.zeros((get_enumeration(lattice).size, 2 * jmax + 1), dtype=complex)
    data[p, j + jmax] = 1.0
    return data


def symmetry_residual(u):
    """Max |c(l, j) - conj(c(-l, -j))| over the coefficients of u."""
    mirror = u.data[get_enumeration(u.lattice).neg, ::-1]
    return float(np.max(np.abs(u.data - np.conj(mirror)), initial=0.0))


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


def melnikov_scan(omega, Omega, floor_factor, lattice, second, N=None):
    """Brute-force Melnikov scan, one float operation at a time.

    The ratio of (l, j) is |omega.l + Omega(j)| / ((c / d(l)) |j|^3) (first
    conditions) and that of (l, j, h), j != h, is
    |omega.l + (Omega(j) - Omega(h))| / ((c / d(l)) |j^3 - h^3|) (second), with
    c = ``floor_factor``, over the modes j, h != 0 and the indices l with
    |l|_eta <= N (all without N).  Returns the smallest ratio and, when it is
    at most 1, the (l, j, h, divisor, floor) of its first occurrence in
    (l, j, h) order (h None for the first conditions), else None.  The
    lattice's tables omega.l, d(l) and the window are its inputs.
    """
    enum = get_enumeration(lattice)
    dots = enum.dots(omega)
    inside = enum.within(np.inf if N is None else N)
    jmax = len(Omega) // 2
    modes = [(j, float(Omega[j + jmax])) for j in range(-jmax, jmax + 1) if j]
    best, witness = np.inf, None
    for p, l in enumerate(enum.indices):
        if not inside[p]:
            continue
        dot, fd = float(dots[p]), floor_factor / float(enum.dvals[p])
        for j, oj in modes:
            cases = [(None, oj, abs(float(j)) ** 3)] if not second else [
                (h, oj - oh, abs(float(j) ** 3 - float(h) ** 3)) for h, oh in modes if h != j]
            for h, gap, weight in cases:
                divisor, floor = abs(dot + gap), fd * weight
                if divisor / floor < best:
                    best, witness = divisor / floor, (l, j, h, divisor, floor)
    return best, (witness if best <= 1.0 else None)


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


def chain_factors(alpha):
    """{(l, i): G_{l,i}} of dx^i(T v) = sum_l G_{l,i} (dy^l v) for i <= 3, as
    spectral functions by the recurrence G_{0,0} = J = 1 + alpha_x,
    G_{l,i+1} = dx G_{l,i} + G_{l-1,i} J; the identically zero ones omitted."""
    jac = 1.0 + dx(alpha, 1)
    G = {(0, 0): jac}
    for i in range(3):
        for l in range(i + 2):
            term = AnalyticFunction.zeros(alpha.lattice, alpha.jmax)
            prev = G.get((l, i))
            if prev is not None:
                term = term + dx(prev, 1)
            below = G.get((l - 1, i))
            if below is not None:
                term = term + multiply(below, jac)
            if not term.is_zero():
                G[(l, i + 1)] = term
    return G


def push_quadratic_spectral(Q, T):
    """r T^{-1} Q(T .) in coefficient form by truncated spectral products:
    q+_{l,m} = r S^{-1}[ (sum_{i,j} q_{i,j} G_{l,i} G_{m,j}) / (1 + alpha_x) ]
    with 1 / (1 + alpha_x) from a grid power, every product truncated, and
    S^{-1} the substitution part of T^{-1} in one pass."""
    G = chain_factors(T.alpha)
    jac_inv = moser_power(G[(0, 0)], -1.0, "jacobian-reciprocal")
    out = {}
    for (i, j), q in Q.coeffs.items():
        for l in range(i + 1):
            for m in range(j + 1):
                if (l, i) in G and (m, j) in G:
                    contrib = multiply(q, multiply(G[(l, i)], G[(m, j)]))
                    out[(l, m)] = contrib if (l, m) not in out else out[(l, m)] + contrib
    moved = substitute_inverse([multiply(f, jac_inv) for f in out.values()], T.alpha_tilde,
                               T.beta_tilde, T.p, T.omega)
    return QuadraticForm(Q.lattice, Q.jmax, {key: multiply(T.r, m) for key, m in zip(out, moved)})


def solve_by_full_steps(spec, max_iters):
    """The outer loop that transports every step before it checks the
    residual: full ``nashmoser.step``s, each followed by ``assemble_solution``
    and ``residual``, with the same stop rules as ``nashmoser.solve`` (less
    its zero-forcing and inadmissible-omega exits)."""
    state = nashmoser.init_state(spec)
    residuals, eps_meas = [], []
    stop, converged, failure, u = "max-iters", False, None, None
    for _ in range(max_iters):
        f_before = state.f.norm(0.0)
        try:
            state = nashmoser.step(state, spec)
        except nashmoser._NUMERIC_FAILURES as exc:
            stop, failure = nashmoser._failure(exc)
            break
        eps_meas.append(state.records[-1]["norm_h"])
        u = nashmoser.assemble_solution(state, u)
        rr = nashmoser.residual(spec, u)
        residuals.append(rr.as_dict())
        norm_f = state.f.norm(0.0)
        if not (math.isfinite(rr.value) and math.isfinite(norm_f)):
            stop = "non-finite"
            break
        if rr.value <= spec.residual_target:
            converged, stop = True, "tolerance"
            break
        if norm_f > nashmoser.DIVERGENCE_FACTOR * max(f_before, 1e-300):
            stop = "diverging"
            break
    eps0 = eps_meas[0] * math.e if eps_meas else 0.0
    theory = [eps0 * math.exp(-nashmoser.CHI**k) for k in range(len(eps_meas))]
    return nashmoser.SolveReport(
        converged=converged, iterations=state.n, stop_reason=stop, residuals=residuals,
        records=state.records,
        eps_trace={"eps0": eps0, "measured": eps_meas, "theory": theory},
        solution=None if u is None else to_payload(u), failure=failure,
    )
