"""Reduction of omega.d_phi + lambda3 dx^3 + a1 dx + a0 to constant coefficients.

Two stages: a symplectic order-one reduction exp(G) with G = pi0_perp g dx^{-1}
removes the variable part of the first-order term up to a bounded remainder;
a quadratically convergent KAM iteration then diagonalizes the remainder,
producing final frequencies Omega(j) = -lambda3 j^3 + lambda1 j + r(j) and an
accumulated transformation stored as its list of generators.

One state type, ``Reduction``, carries the whole run: the frequencies, the
remainder P and cutoff N, the generators [G, Psi_0, Psi_1, ...] and one
trace row per KAM step.  ``kam_step`` maps a state to the next one,
``kam_iterate`` returns the state it stopped at with its ``stop_reason`` (a
failed step leaves the last completed state, with the error in ``failure``),
and ``reduce_operator`` returns that state with the operator it reduced and
its diagnostics.  The step count and the convergence flag are read off the
trace and the stop reason.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .analytic import AnalyticFunction, dx, dx_inv, mean_phi_x, om_dphi, pi0, pi0_perp
from .errors import ReductionError, SeriesDivergenceError, SmallDivisorError
from .homological import solve_diagonal
from .lattice import get_enumeration
from .opalg import (
    DifferentialOperator,
    OperatorMatrix,
    commutator,
    diag_commutator,
    exp_apply,
    lie_series,
    materialize,
    mult_dx_op,
    mult_op,
    op_norm,
    phi_derivative,
    restrict,
    series_budget,
    smoothing_generator_op,
    split_by_norm,
    split_diagonal,
)
from .smalldiv import first_melnikov, second_melnikov

__all__ = [
    "KamSchedule",
    "Reduction",
    "OrderOneResult",
    "order_one_reduction",
    "kam_step",
    "kam_iterate",
    "reduce_operator",
    "invert_via_diagonalization",
]

log = logging.getLogger(__name__)

# largest real part a diagonal entry of a KAM remainder may carry
IMAG_TOL = 1e-10

# N_{k+1} / N_k: the KAM cutoffs grow geometrically
N_RATIO = 2.0


@dataclass(frozen=True)
class KamSchedule:
    """Cutoffs and tolerances of one reducibility run."""

    gamma: float
    gbar: float
    N0: float
    stop_tol: float
    max_steps: int


@dataclass
class Reduction:
    """A state of the reduction: frequencies Omega(j) = -lambda3 j^3 +
    lambda1 j + r(j), remainder P, KAM cutoff N, and the generators of the
    diagonalizing map M = exp(G) exp(Psi_0) exp(Psi_1) ....

    ``L``, ``stop_reason`` and ``diagnostics`` are set once the iteration
    stops (``kam_iterate``, ``reduce_operator``); ``failure`` holds the error
    of a KAM step that failed after this state.
    """

    lambda3: float
    lambda1: float
    P: OperatorMatrix
    N: float
    r: Optional[np.ndarray] = None   # r(j), indexed j + jmax, r[jmax] = 0; zeros if None
    gens: list = field(default_factory=list)     # [G, Psi_0, Psi_1, ...]
    trace: list = field(default_factory=list)    # one row per KAM step
    L: Optional[DifferentialOperator] = None
    stop_reason: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)
    failure: Optional[Exception] = None

    def __post_init__(self):
        if self.r is None:
            self.r = np.zeros(2 * self.P.jmax + 1)

    @property
    def k(self) -> int:
        return len(self.trace)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("tolerance", "already-diagonal")

    @property
    def lattice(self):
        return self.P.lattice

    @property
    def jmax(self):
        return self.P.jmax

    def omega_values(self) -> np.ndarray:
        """Omega(j), indexed j + jmax, with the j = 0 slot set to 0."""
        j = np.arange(-self.jmax, self.jmax + 1, dtype=float)
        out = -self.lambda3 * j**3 + self.lambda1 * j + self.r
        out[self.jmax] = 0.0
        return out

    def apply_M(self, u: AnalyticFunction) -> AnalyticFunction:
        for gen in reversed(self.gens):
            u = exp_apply(gen, u)
        return u

    def apply_M_inverse(self, u: AnalyticFunction) -> AnalyticFunction:
        for gen in self.gens:
            u = exp_apply(-gen, u)
        return u


@dataclass
class OrderOneResult:
    G: OperatorMatrix
    R0: OperatorMatrix
    g: AnalyticFunction
    report: dict = field(default_factory=dict)


def order_one_reduction(lambda3: float, a1: AnalyticFunction, a0: AnalyticFunction,
                        omega) -> OrderOneResult:
    """Symplectic generator G and bounded remainder R0 with
    exp(-G) L exp(G) = omega.d_phi + lambda3 dx^3 + lambda1 dx + R0.

    g solves 3 lambda3 g_x + a1 = lambda1 with lambda1 the (phi-independent)
    x-average of a1, and G = pi0_perp g dx^{-1}.  With P = a1 dx + a0 the
    conjugation adds one Lie series in the one commutator
    [L, G] = Gdot + [lambda3 dx^3 + P, G], Gdot = pi0_perp (omega.d_phi g) dx^{-1}:
    R0 = lie_series(G, [L, G]) - lambda3 (3 g_x) dx + a0, where the
    subtracted first-order term is the part of the series that turns a1 dx
    into lambda1 dx.  [lambda3 dx^3, G] is entrywise, and [P, G] drops
    block pairs worth at most series_budget(P) (see ``opalg.compose``).
    """
    lat, jmax = a1.lattice, a1.jmax
    om = np.asarray(omega, dtype=float)
    avg = pi0(a1)
    lambda1 = mean_phi_x(avg).real
    const = AnalyticFunction.constant(lat, jmax, lambda1)
    rep = {"x_average_defect": (avg - const).norm(0.0)}
    rhs = const - a1
    g = (1.0 / (3.0 * lambda3)) * dx_inv(pi0_perp(rhs))
    G = smoothing_generator_op(g)

    R0 = mult_op(a0)
    if G.index.size:      # then a1 is not constant
        P = mult_dx_op(a1) + R0
        LG = (smoothing_generator_op(om_dphi(g, om))
              + diag_commutator(-1j * lambda3 * np.arange(-jmax, jmax + 1) ** 3, G)
              + commutator(P, G, series_budget(P)))
        series, rep["lie_terms"] = lie_series(G, LG)
        R0 = series - lambda3 * mult_dx_op(3.0 * dx(g, 1)) + R0
    rep["g_norm"] = g.norm(0.0)
    rep["R0_norm"] = op_norm(R0, 0.0)
    return OrderOneResult(G, R0, g, rep)


def _homological_generator(P_low: OperatorMatrix, omega, omv) -> OperatorMatrix:
    """Psi_l[j, j'] = -P_low_l[j, j'] / (i (omega.l + Omega(j) - Omega(j'))), zero where
    that divides by zero and on the l = 0 diagonal: one broadcast over P_low's stack."""
    dots = get_enumeration(P_low.lattice).dots(omega)
    denom = 1j * (dots[P_low.index][:, None, None] + (omv[:, None] - omv[None, :]))
    mask = np.abs(denom) > 0
    if P_low.index.size and not P_low.index[0]:
        np.fill_diagonal(mask[0], False)
    psi = np.zeros_like(P_low.stack)
    np.divide(-P_low.stack, denom, out=psi, where=mask)
    return OperatorMatrix.from_stack(P_low.lattice, P_low.jmax, P_low.index, psi,
                                     real=P_low.real)


def kam_step(state: Reduction, omega, schedule: KamSchedule) -> Reduction:
    """One quadratic reduction step: the next state, with Psi appended to
    ``gens`` and the step's row to ``trace``.

    Requires the second Melnikov conditions for Omega_k up to the cutoff N_k;
    absorbs the diagonal Z of the remainder P = P_low + P_high into the
    frequencies and solves the homological equation for the generator Psi
    entrywise, like [D, Psi] (D = i Omega_k).  The dust is the rest of the
    diagonal (its real and j-even parts).  With C = [P, Psi] and
    X = Z + dust - P_low, the value of [omega.d_phi + D, Psi], the new
    remainder is one Lie series:
    P_high + dust + C + lie_series(Psi, [X + C, Psi], start_factor=2).
    The commutators C and [X + C, Psi] each drop block pairs worth at most
    series_budget(P) (see ``opalg.compose``), and the series within its own
    stop tolerance (see ``opalg.lie_series``).
    """
    om = np.asarray(omega, dtype=float)
    t0 = time.perf_counter()
    lat, jmax = state.P.lattice, state.jmax
    omv = state.omega_values()

    chk = second_melnikov(om, omv, schedule.gamma, lat, gbar=schedule.gbar, N=state.N)
    if not chk.ok:
        raise chk.error(f"Melnikov breach at step {state.k}: margin {chk.margin:.3e}")

    P_low, P_high = split_by_norm(state.P, state.N)

    zdiag = split_diagonal(state.P)[0]
    re_defect = float(np.max(np.abs(zdiag.real)))
    if re_defect > IMAG_TOL:
        raise ReductionError(
            f"diagonal of the remainder is not purely imaginary ({re_defect:.3e})"
        )
    z = zdiag.imag.copy()
    z[jmax] = 0.0
    odd_defect = float(np.max(np.abs(z + z[::-1])))
    z = 0.5 * (z - z[::-1])

    Psi = _homological_generator(P_low, om, omv)
    Z_op = OperatorMatrix.from_stack(lat, jmax, [0], np.diag(1j * z)[None])
    dust = OperatorMatrix.from_stack(lat, jmax, [0], np.diag(zdiag - 1j * z)[None])
    X = Z_op + dust - P_low
    # homological residual om.d_phi Psi + [D, Psi] - X  (diagnostic)
    hom_resid = op_norm(phi_derivative(Psi, om) + diag_commutator(1j * omv, Psi) - X, 0.0)

    P_new = P_high + dust
    if Psi.index.size:
        budget = series_budget(state.P)
        C = commutator(state.P, Psi, budget)
        tail, _ = lie_series(Psi, commutator(X + C, Psi, budget), start_factor=2)
        P_new = P_new + C + tail

    row = {
        "step": state.k,
        "p_norm": op_norm(state.P, 0.0),
        "margin": chk.margin,
        "hom_residual": hom_resid,
        "odd_defect": odd_defect,
        "seconds": time.perf_counter() - t0,
    }
    return replace(state, r=state.r + z, P=P_new, N=state.N * N_RATIO,
                   gens=state.gens + [Psi], trace=state.trace + [row])


def kam_iterate(state: Reduction, omega, schedule: KamSchedule) -> Reduction:
    """Iterate kam_step until op_norm(P) <= stop_tol, stagnation, or max_steps;
    returns the last state with its ``stop_reason``, "failure" (with the error
    in ``failure``) when a step raises a numerical failure."""
    if op_norm(state.P, 0.0) <= schedule.stop_tol:
        return replace(state, stop_reason="already-diagonal")
    flat = 0
    for _ in range(schedule.max_steps):
        try:
            state = kam_step(state, omega, schedule)
        except (SmallDivisorError, SeriesDivergenceError, ReductionError) as exc:
            return replace(state, stop_reason="failure", failure=exc)
        pn = op_norm(state.P, 0.0)
        if pn <= schedule.stop_tol:
            return replace(state, stop_reason="tolerance")
        if pn > 0.5 * state.trace[-1]["p_norm"]:
            flat += 1
            if flat >= 3:
                return replace(state, stop_reason="stagnation")
        else:
            flat = 0
    return replace(state, stop_reason="max-steps")


def reduce_operator(L: DifferentialOperator, schedule: KamSchedule, *,
                    verify_window=None) -> Reduction:
    """Full reduction of L to diagonal frequencies: the state ``kam_iterate``
    stopped at, with ``L`` and its diagnostics set.  A reduction whose
    iteration failed (``failure`` set) is returned without the window.

    ``verify_window = (jwin, lwin)`` additionally conjugates L through all
    generators and records the interior off-diagonal residual, the worst
    diagonal mismatch, the largest diagonal entry (``diag_scale``) and each
    generator's series term count.  Each G adds to materialize(L) one Lie
    series in [L, G] = [D, G] + Gdot + [L - D, G], D the l = 0 diagonal so
    far: [D, G] is entrywise, so every series and budget is relative to a
    bounded term.
    """
    om = L.omega
    lam1 = L.lambda1()
    oor = order_one_reduction(L.lambda3, L.B, L.C, om)
    red = kam_iterate(Reduction(L.lambda3, lam1, oor.R0, schedule.N0,
                                gens=[oor.G] if oor.G.index.size else []), om, schedule)
    diag = {
        "order_one": oor.report,
        "kam_stop": red.stop_reason,
        "final_p_norm": op_norm(red.P, 0.0),
        "steps": red.k,
    }
    red = replace(red, L=L, diagnostics=diag)
    if verify_window is not None and red.failure is None:
        jwin, lwin = verify_window
        conj = materialize(L)
        diag["window_lie_terms"] = []
        for gen in red.gens:
            d, rest = split_diagonal(conj)
            LG = (diag_commutator(d, gen) + phi_derivative(gen, om)
                  + commutator(rest, gen, series_budget(rest)))
            del rest    # a copy of conj's blocks, not needed by the series
            series, k = lie_series(gen, LG)
            conj = conj + series
            diag["window_lie_terms"].append(k)
        vals = red.omega_values()
        inside = np.abs(np.arange(-L.jmax, L.jmax + 1)) <= jwin
        d, off = split_diagonal(restrict(conj, jwin, lwin))
        diag["offdiag_residual"] = op_norm(off, 0.0)
        diag["diag_mismatch"] = float(np.max(np.abs(d - 1j * vals)[inside]))
        diag["diag_scale"] = float(np.max(np.abs(vals[inside])))
    return red


def invert_via_diagonalization(red: Reduction, f: AnalyticFunction,
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
        raise chk.error(f"first Melnikov breach: margin {chk.margin:.3e}")
    g = red.apply_M_inverse(f)
    h_tilde = solve_diagonal(g, red.L.omega, omv, gamma)
    h = red.apply_M(h_tilde)
    if report is not None:
        resid = (red.L.apply(h) + pi0_perp(f)).norm(0.0)
        report["residual"] = resid
        report["residual_rel"] = resid / max(f.norm(0.0), 1e-300)
        report["melnikov_margin"] = chk.margin
    return h

