"""Reduction of omega.d_phi + lambda3 dx^3 + a1 dx + a0 to constant coefficients.

Two stages: a symplectic order-one reduction exp(G) with G = pi0_perp g dx^{-1}
removes the variable part of the first-order term up to a bounded remainder;
a quadratically convergent KAM iteration then diagonalizes the remainder,
producing final frequencies Omega(j) = -lambda3 j^3 + lambda1 j + r(j) and an
accumulated transformation stored as its list of generators.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import AnalyticFunction, dx, dx_inv, mean_phi_x, om_dphi, pi0, pi0_perp
from .errors import ReductionError, SmallDivisorError
from .homological import solve_diagonal
from .lattice import get_enumeration
from .opalg import (
    DifferentialOperator,
    OperatorMatrix,
    commutator,
    compose,
    dx_op,
    exp_apply,
    exp_conjugate,
    lie_series,
    materialize,
    mult_op,
    op_norm,
    phi_derivative,
    restrict,
    smoothing_generator_op,
    split_by_norm,
    x_symbol_op,
)
from .smalldiv import first_melnikov, second_melnikov

__all__ = [
    "KamSchedule",
    "KamState",
    "OrderOneResult",
    "order_one_reduction",
    "kam_state_init",
    "kam_step",
    "kam_iterate",
    "KamResult",
    "ReductionResult",
    "reduce_operator",
    "invert_via_diagonalization",
    "compare_reductions",
]

log = logging.getLogger(__name__)

# largest real part a diagonal entry of a KAM remainder may carry
IMAG_TOL = 1e-10


@dataclass(frozen=True)
class KamSchedule:
    """Cutoffs and tolerances of one reducibility run."""

    gamma: float
    gbar: float
    N0: float = 4.0
    N_ratio: float = 2.0
    stop_tol: float = 1e-12
    max_steps: int = 40
    series_tol: float = 1e-15


class _Frequencies:
    """Frequencies Omega(j) = -lambda3 j^3 + lambda1 j + r(j) of a diagonal operator.

    Shared by KamState and ReductionResult, which carry lambda3, lambda1, the
    correction r (indexed j + jmax, r[jmax] = 0) and jmax.
    """

    def omega_values(self) -> np.ndarray:
        """Omega(j), indexed j + jmax, with the j = 0 slot set to 0."""
        j = np.arange(-self.jmax, self.jmax + 1, dtype=float)
        out = -self.lambda3 * j**3 + self.lambda1 * j + self.r
        out[self.jmax] = 0.0
        return out


@dataclass
class KamState(_Frequencies):
    k: int
    lambda3: float
    lambda1: float
    r: np.ndarray            # correction r_k(j), indexed j + jmax, r[jmax] = 0
    P: OperatorMatrix
    psis: list = field(default_factory=list)
    N: float = 4.0
    trace: list = field(default_factory=list)

    @property
    def jmax(self):
        return self.P.jmax


@dataclass
class OrderOneResult:
    G: OperatorMatrix
    R0: OperatorMatrix
    g: AnalyticFunction
    report: dict = field(default_factory=dict)


def order_one_reduction(lambda3: float, a1: AnalyticFunction, a0: AnalyticFunction,
                        omega, *, lambda1=None, series_tol=1e-15) -> OrderOneResult:
    """Symplectic generator G and bounded remainder R0 with
    exp(-G) L exp(G) = omega.d_phi + lambda3 dx^3 + lambda1 dx + R0.

    g solves 3 lambda3 g_x + a1 = lambda1 with lambda1 the (phi-independent)
    x-average of a1, and G = pi0_perp g dx^{-1}.  With P = a1 dx + a0 the
    conjugation adds one Lie series in the one commutator
    [L, G] = Gdot + [lambda3 dx^3 + P, G], Gdot = pi0_perp (omega.d_phi g) dx^{-1}:
    R0 = lie_series(G, [L, G]) - lambda3 (3 g_x) dx + a0, where the
    subtracted first-order term is the part of the series that turns a1 dx
    into lambda1 dx.
    """
    lat, jmax = a1.lattice, a1.jmax
    om = np.asarray(omega, dtype=float)
    avg = pi0(a1)
    const = mean_phi_x(avg).real
    if lambda1 is None:
        lambda1 = const
    rep = {
        "x_average_defect": (avg - AnalyticFunction.constant(lat, jmax, const)).norm(0.0),
    }
    rhs = AnalyticFunction.constant(lat, jmax, lambda1) - a1
    g = (1.0 / (3.0 * lambda3)) * dx_inv(pi0_perp(rhs))
    G = smoothing_generator_op(g)

    R0 = mult_op(a0)
    if G.data:      # then a1 is not constant
        P = compose(mult_op(a1), dx_op(lat, jmax)) + R0
        LG = (smoothing_generator_op(om_dphi(g, om))
              + commutator(lambda3 * dx_op(lat, jmax, 3) + P, G))
        series, rep["lie_terms"] = lie_series(G, LG, tol=series_tol)
        R0 = series - lambda3 * compose(mult_op(3.0 * dx(g, 1)), dx_op(lat, jmax)) + R0
    rep["g_norm"] = g.norm(0.0)
    rep["R0_norm"] = op_norm(R0, 0.0)
    return OrderOneResult(G, R0, g, rep)


def kam_state_init(lambda3: float, lambda1: float, P0: OperatorMatrix,
                   N0: float) -> KamState:
    r = np.zeros(2 * P0.jmax + 1)
    return KamState(k=0, lambda3=lambda3, lambda1=lambda1, r=r, P=P0, N=N0)


def kam_step(state: KamState, omega, schedule: KamSchedule) -> KamState:
    """One quadratic reduction step.

    Requires the second Melnikov conditions for Omega_k up to the cutoff N_k;
    absorbs the diagonal Z of the remainder P = P_low + P_high into the
    frequencies and solves the homological equation for the generator Psi.
    The dust is the rest of the diagonal (its real and j-even parts).  With
    C = [P, Psi] and X = Z + dust - P_low, the homological equation's value
    of [omega.d_phi + D, Psi], the new remainder is one Lie series:
    P_high + dust + C + lie_series(Psi, [X + C, Psi], start_factor=2).
    """
    om = np.asarray(omega, dtype=float)
    t0 = time.perf_counter()
    lat, jmax = state.P.lattice, state.jmax
    nj = 2 * jmax + 1
    omv = state.omega_values()

    chk = second_melnikov(om, omv, schedule.gamma, lat,
                          gbar=schedule.gbar, N=state.N, two_gamma=False)
    if not chk.ok:
        w = chk.witness
        raise SmallDivisorError(
            f"Melnikov breach at step {state.k}: margin {chk.margin:.3e}",
            l=None if w is None else w.l, j=None if w is None else w.j,
            h=None if w is None else w.h,
            divisor=None if w is None else w.divisor,
            floor=None if w is None else w.floor,
        )

    P_low, P_high = split_by_norm(state.P, state.N)

    zero_block = state.P.data.get(0)
    zdiag = np.zeros(nj, dtype=complex) if zero_block is None else np.diag(zero_block).copy()
    re_defect = float(np.max(np.abs(zdiag.real))) if zdiag.size else 0.0
    if re_defect > IMAG_TOL:
        raise ReductionError(
            f"diagonal of the remainder is not purely imaginary ({re_defect:.3e})"
        )
    z = zdiag.imag.copy()
    z[jmax] = 0.0
    odd_defect = float(np.max(np.abs(z + z[::-1])))
    z = 0.5 * (z - z[::-1])

    gap = omv[:, None] - omv[None, :]
    dots = get_enumeration(lat).dots(om)
    psi_blocks = {}
    for p, b in P_low.data.items():
        denom = 1j * (dots[p] + gap)
        mask = np.abs(denom) > 0
        if not p:
            np.fill_diagonal(mask, False)
        psi = np.zeros_like(b)
        np.divide(-b, denom, out=psi, where=mask)
        if not p:
            np.fill_diagonal(psi, 0.0)
        psi_blocks[p] = psi
    Psi = OperatorMatrix.from_indexed(lat, jmax, psi_blocks, real=state.P.real)

    Z_op = OperatorMatrix.from_indexed(lat, jmax, {0: np.diag(1j * z)})
    dust = OperatorMatrix.from_indexed(lat, jmax, {0: np.diag(zdiag - 1j * z)})
    X = Z_op + dust - P_low
    # homological residual om.d_phi Psi + [D, Psi] - X  (diagnostic)
    D_op = x_symbol_op(lat, jmax, lambda j: 1j * omv[j + jmax])
    hom_resid = op_norm(phi_derivative(Psi, om) + commutator(D_op, Psi) - X, 0.0)

    P_new = P_high + dust
    if Psi.data:
        C = commutator(state.P, Psi)
        tail, _ = lie_series(Psi, commutator(X + C, Psi), tol=schedule.series_tol,
                             start_factor=2)
        P_new = P_new + C + tail

    r_new = state.r + z

    new = KamState(
        k=state.k + 1, lambda3=state.lambda3, lambda1=state.lambda1,
        r=r_new, P=P_new, psis=state.psis + [Psi],
        N=state.N * schedule.N_ratio, trace=list(state.trace),
    )
    new.trace.append({
        "step": state.k,
        "p_norm": op_norm(state.P, 0.0),
        "margin": chk.margin,
        "hom_residual": hom_resid,
        "odd_defect": odd_defect,
        "seconds": time.perf_counter() - t0,
    })
    return new


@dataclass
class KamResult:
    state: KamState
    converged: bool
    stop_reason: str

    @property
    def trace(self):
        return self.state.trace


def kam_iterate(state: KamState, omega, schedule: KamSchedule) -> KamResult:
    """Iterate kam_step until op_norm(P) <= stop_tol, stagnation, or max_steps."""
    history = [op_norm(state.P, 0.0)]
    if history[0] <= schedule.stop_tol:
        return KamResult(state, True, "already-diagonal")
    flat = 0
    for _ in range(schedule.max_steps):
        state = kam_step(state, omega, schedule)
        pn = op_norm(state.P, 0.0)
        history.append(pn)
        if pn <= schedule.stop_tol:
            return KamResult(state, True, "tolerance")
        if pn > 0.5 * history[-2]:
            flat += 1
            if flat >= 3:
                return KamResult(state, False, "stagnation")
        else:
            flat = 0
    return KamResult(state, False, "max-steps")


@dataclass
class ReductionResult(_Frequencies):
    """Everything needed to use the diagonalizing map M = exp(G) Phi_0 Phi_1 ...."""

    L: DifferentialOperator
    lambda3: float
    lambda1: float
    gens: list                       # [G, Psi_0, Psi_1, ...]
    r: np.ndarray
    converged: bool
    stop_reason: str
    trace: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def lattice(self):
        return self.L.lattice

    @property
    def jmax(self):
        return self.L.jmax

    def apply_M(self, u: AnalyticFunction, tol=1e-15) -> AnalyticFunction:
        for gen in reversed(self.gens):
            u = exp_apply(gen, u, tol=tol)
        return u

    def apply_M_inverse(self, u: AnalyticFunction, tol=1e-15) -> AnalyticFunction:
        for gen in self.gens:
            u = exp_apply(-gen, u, tol=tol)
        return u


def reduce_operator(L: DifferentialOperator, schedule: KamSchedule, *,
                    verify_window=None) -> ReductionResult:
    """Full reduction of L to diagonal frequencies, with diagnostics.

    ``verify_window = (jwin, lwin)`` additionally conjugates L through all
    generators and records the interior off-diagonal residual and the worst
    diagonal mismatch.  Each generator conjugates the bounded part
    materialize(L) and adds the Lie series of its phi-derivative, the
    conjugate of omega.d_phi less omega.d_phi itself.
    """
    om = L.omega
    lam1 = L.lambda1()
    oor = order_one_reduction(L.lambda3, L.B, L.C, om, lambda1=lam1,
                              series_tol=schedule.series_tol)
    state = kam_state_init(L.lambda3, lam1, oor.R0, schedule.N0)
    kr = kam_iterate(state, om, schedule)
    gens = ([oor.G] if oor.G.data else []) + kr.state.psis
    diag = {
        "order_one": oor.report,
        "kam_stop": kr.stop_reason,
        "final_p_norm": op_norm(kr.state.P, 0.0),
        "steps": kr.state.k,
    }
    result = ReductionResult(
        L=L, lambda3=L.lambda3, lambda1=lam1, gens=gens, r=kr.state.r,
        converged=kr.converged, stop_reason=kr.stop_reason,
        trace=kr.trace, diagnostics=diag,
    )
    if verify_window is not None:
        jwin, lwin = verify_window
        conj = materialize(L)
        for gen in gens:
            conj = (exp_conjugate(gen, conj, tol=schedule.series_tol)
                    + lie_series(gen, phi_derivative(gen, om), tol=schedule.series_tol)[0])
        vals = result.omega_values()
        D = x_symbol_op(L.lattice, L.jmax, lambda j: 1j * vals[j + L.jmax])
        delta = restrict(conj - D, jwin, lwin)
        offdiag = {p: b.copy() for p, b in delta.data.items()}
        diag_mismatch = 0.0
        if 0 in offdiag:
            b = offdiag[0]
            diag_mismatch = float(np.max(np.abs(np.diag(b))))
            np.fill_diagonal(b, 0.0)
        off = OperatorMatrix.from_indexed(L.lattice, L.jmax, offdiag, real=False)
        diag["offdiag_residual"] = op_norm(off, 0.0)
        diag["diag_mismatch"] = diag_mismatch
    return result


def invert_via_diagonalization(red: ReductionResult, f: AnalyticFunction,
                               gamma: float, report=None) -> AnalyticFunction:
    """h with L h = -f through the diagonalization: h = M D^{-1} M^{-1} (-f).

    Checks the first Melnikov conditions for the final frequencies, applies
    the stored generators in reverse for M^{-1}, divides, and maps back.
    The structured residual |L h + f| / |f| is recorded when a report dict is
    passed.
    """
    omv = red.omega_values()
    chk = first_melnikov(red.L.omega, omv, gamma, red.lattice)
    if not chk.ok:
        w = chk.witness
        raise SmallDivisorError(
            f"first Melnikov breach: margin {chk.margin:.3e}",
            l=None if w is None else w.l, j=None if w is None else w.j,
            divisor=None if w is None else w.divisor,
            floor=None if w is None else w.floor,
        )
    g = red.apply_M_inverse(f)
    h_tilde = solve_diagonal(g, red.L.omega, omv, gamma)
    h = red.apply_M(h_tilde)
    if report is not None:
        resid = (red.L.apply(h) + pi0_perp(f)).norm(0.0)
        report["residual"] = resid
        report["residual_rel"] = resid / max(f.norm(0.0), 1e-300)
        report["melnikov_margin"] = chk.margin
    return h


def compare_reductions(redA: ReductionResult, redB: ReductionResult) -> dict:
    """Per-step and final deviations between two reductions on one truncation."""
    if redA.lattice != redB.lattice or redA.jmax != redB.jmax:
        raise ValueError("matching truncations required")
    out = {}
    vals = np.abs(redA.omega_values() - redB.omega_values())
    out["omega_inf_sup"] = float(np.max(vals))
    out["r_sup"] = float(np.max(np.abs(redA.r - redB.r)))
    steps = min(len(redA.trace), len(redB.trace))
    out["p_norm_diffs"] = [
        abs(redA.trace[k]["p_norm"] - redB.trace[k]["p_norm"]) for k in range(steps)
    ]
    gshared = min(len(redA.gens), len(redB.gens))
    out["gen_diffs"] = [
        op_norm(redA.gens[k] - redB.gens[k], 0.0) for k in range(gshared)
    ]
    # frequency deviation profile in j, for slope fits against j^3
    out["omega_diff_by_j"] = {
        int(j): float(vals[j + redA.jmax])
        for j in range(-redA.jmax, redA.jmax + 1) if j != 0
    }
    return out
