"""Outer Newton-type iteration for the forced quasi-linear Airy equation.

State n holds the triple (f_n, L_n, Q_n) of the functional
F_n(u) = f_n + L_n u + Q_n(u).  Each step solves L_n h_n = -f_n through the
reducibility path, builds the change of variables killing the new linearized
operator's variable top-order coefficients, and transports everything:

    f_{n+1} = r T^{-1} Q_n(h_n),
    L_{n+1} = r T^{-1}(L_n + Q_n'(h_n)) T,
    Q_{n+1} = r T^{-1} Q_n(T .).

The approximate solution is the telescoping sum u_n = h_0 + sum T_1...T_j h_j
and is certified by an independent collocation residual.

State n lives at a working x-truncation jmax_n.  Step 0 runs at the
config's jmax; after each step the solver restricts (f, L, Q) to the
smallest |j| <= jmax_n beyond which each of f, B, C and the coefficients of
Q holds less than ``DROP_REL`` of its l1 norm, plus one guard mode
(``working_jmax``), so jmax_n never grows.  The reduction of step n, and so
its Melnikov checks, cover |j| <= jmax_n; ``init_state`` still checks the
cubic-dispersion nonresonance on the full box.  The transforms stay at the
truncation of the step that built them, and ``assemble_solution`` embeds each
h_j in the truncation of the transform it meets, so u and its residual live
at the config's jmax and the residual sees any mass a shrink would drop.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _grid
from .analytic import AnalyticFunction, multiply, pi0, pi0_perp, to_payload
from .conjugation import (
    QuadraticForm,
    apply_transform,
    apply_transform_inverse,
    conjugate_step,
    evaluate_quadratic,
    linearize_quadratic,
    push_quadratic,
)
from .errors import (
    AliasingError,
    NonContractionError,
    ReductionError,
    SeriesDivergenceError,
    SeriesRadiusError,
    SmallDivisorError,
)
from .opalg import DifferentialOperator
from .reducibility import KamSchedule, invert_via_diagonalization, reduce_operator
from .smalldiv import DiophantineParams, FrequencyVector, is_airy_nonresonant, is_diophantine

__all__ = [
    "ProblemSpec",
    "StripSchedule",
    "IterationState",
    "SolveReport",
    "ResidualReport",
    "initial_quadratic_form",
    "init_state",
    "step",
    "assemble_solution",
    "residual",
    "solve",
]

log = logging.getLogger(__name__)

CHI = 1.5

# Share of its l1 norm (sigma = 0) that a function of the state may lose when
# the working x-truncation shrinks: a thousandth of the rounding of the norm
# itself.  Measured at omega seed 7: after step 0 every input of step 1 (f, B,
# C and the 11 coefficients of Q) holds at most 3.2e-14 of its norm beyond
# |j| = 8 and nothing beyond 9 on solve_m2, nothing beyond 8 on solve_m3 and
# nothing beyond 5 on solve_small, so this share and one guard mode give jmax
# 10, 9 and 6 in place of 16.  The final residual l1 stayed bit-identical on
# solve_m2 (omega seeds 3, 7 and 15) and on solve_small run to two steps, and
# moved by 3.8e-21 on solve_m3.
DROP_REL = 1e-3 * float(np.finfo(float).eps)


class StripSchedule:
    """Analyticity-strip bookkeeping s_n, sigma_n driven by (S, s_bar)."""

    def __init__(self, S: float, s_bar: float):
        if not S > s_bar > 0:
            raise ValueError("need S > s_bar > 0")
        self.S = float(S)
        self.s_bar = float(s_bar)
        self.sigma_m1 = min(S - s_bar, 1.0) / 8.0

    def sigma(self, n: int) -> float:
        """sigma_n for n >= -1."""
        if n < -1:
            raise ValueError("n >= -1")
        if n == -1:
            return self.sigma_m1
        return 6.0 * self.sigma_m1 / (math.pi**2 * (n + 1) ** 2)

    def s(self, n: int) -> float:
        """s_n = s_{n-1} - 6 sigma_{n-1}, with s_0 = S - sigma_{-1}."""
        out = self.S - self.sigma_m1
        for k in range(n):
            out -= 6.0 * self.sigma(k)
        return out


@dataclass
class ProblemSpec:
    """Problem data and run configuration for the outer iteration."""

    c: tuple                         # (c0, c1, c2, c3) of the cubic density
    forcing: AnalyticFunction
    S: float
    s_bar: float
    gbar: float
    gamma0: float
    omega: np.ndarray
    N0: float = 8.0
    kam_stop_tol: float = 1e-13
    kam_max_steps: int = 40
    residual_target: float = 1e-10
    divergence_factor: float = 10.0

    def __post_init__(self):
        self.omega = FrequencyVector(self.omega).values
        if len(self.c) != 4:
            raise ValueError("need the four density coefficients (c0, c1, c2, c3)")
        self.c = tuple(float(v) for v in self.c)
        if self.omega.shape != (self.forcing.lattice.M,):
            raise ValueError("omega length must match the lattice site count")
        if not self.forcing.real:
            raise ValueError("forcing must be real-on-real")
        if not self.forcing.zero_x_average:
            raise ValueError("forcing must have zero x-average")
        if not self.residual_target > 0:
            raise ValueError(f"residual_target must be > 0, got {self.residual_target}")
        if not self.kam_stop_tol >= 0:
            raise ValueError(f"kam_stop_tol must be >= 0, got {self.kam_stop_tol}")
        self.dioph = DiophantineParams(self.gamma0, self.gbar)
        self.strips = StripSchedule(self.S, self.s_bar)

    @property
    def oversample(self) -> int:
        return 2  # Q is quadratic: the factor-2 grid holds all of F(u)'s band, alias-free

    @property
    def lattice(self):
        return self.forcing.lattice

    @property
    def jmax(self):
        return self.forcing.jmax


@dataclass
class IterationState:
    n: int
    f: AnalyticFunction
    L: DifferentialOperator
    Q: QuadraticForm
    transforms: list = field(default_factory=list)
    h_list: list = field(default_factory=list)
    records: list = field(default_factory=list)


def initial_quadratic_form(c, lattice, jmax) -> QuadraticForm:
    """Taylor table of the Hamiltonian nonlinearity.

    Expanding dxx(3 c3 u_x^2 + 2 c2 u u_x + c1 u^2) - dx(c2 u_x^2 + 2 c1 u u_x
    + 3 c0 u^2) gives 6 c3 u_x u_xxx + 6 c3 u_xx^2 + 4 c2 u_x u_xx
    + 2 c2 u u_xxx - 6 c0 u u_x; the c1 contribution cancels identically
    (u^2 u_x is a null Lagrangian).
    """
    c0, _c1, c2, c3 = (float(v) for v in c)

    def const(v):
        return AnalyticFunction.constant(lattice, jmax, v)

    table = {}
    if c3:
        table[(1, 3)] = const(6.0 * c3)
        table[(2, 2)] = const(6.0 * c3)
    if c2:
        table[(1, 2)] = const(4.0 * c2)
        table[(0, 3)] = const(2.0 * c2)
    if c0:
        table[(0, 1)] = const(-6.0 * c0)
    return QuadraticForm(lattice, jmax, table)


def init_state(spec: ProblemSpec) -> IterationState:
    """F_0 = f + (om.d_phi + dx^3) u + Q_0(u); rejects non-admissible omega."""
    chk = is_diophantine(spec.omega, spec.gbar, spec.lattice)
    if not chk.ok:
        raise SmallDivisorError(
            f"omega outside the Diophantine set at gbar (margin {chk.margin:.3e})",
            l=chk.witness.l if chk.witness else None,
            divisor=chk.witness.divisor if chk.witness else None,
            floor=chk.witness.floor if chk.witness else None,
        )
    chk0 = is_airy_nonresonant(spec.omega, spec.gamma0, spec.lattice, spec.jmax)
    if not chk0.ok:
        w = chk0.witness
        raise SmallDivisorError(
            f"omega resonates with the cubic dispersion (margin {chk0.margin:.3e})",
            l=w.l if w else None, j=w.j if w else None,
            divisor=w.divisor if w else None, floor=w.floor if w else None,
        )
    zero = AnalyticFunction.zeros(spec.lattice, spec.jmax)
    L0 = DifferentialOperator(spec.omega, 1.0, zero, zero)
    Q0 = initial_quadratic_form(spec.c, spec.lattice, spec.jmax)
    return IterationState(n=0, f=spec.forcing, L=L0, Q=Q0)


def _tail_shares(u: AnalyticFunction) -> np.ndarray:
    """Share of |u|_0 held in |j| > k, indexed k = 0..jmax (zeros for u = 0)."""
    cols = np.abs(u.data).sum(axis=0)
    by_absj = cols[u.jmax:].copy()
    by_absj[1:] += cols[:u.jmax][::-1]
    tails = np.append(np.cumsum(by_absj[:0:-1])[::-1], 0.0)
    total = by_absj.sum()
    return tails / total if total else tails


def working_jmax(funcs, jmax: int):
    """The x-truncation for the next step, and the largest share of a norm it drops.

    It is the smallest k, plus one guard mode and at most jmax, such that
    each function holds less than ``DROP_REL`` of its l1 norm in |j| > k; the
    inequality is strict, so ``DROP_REL = 0`` keeps jmax.
    """
    shares = np.max([_tail_shares(u) for u in funcs], axis=0)
    fits = np.flatnonzero(shares < DROP_REL)
    jw = min(int(fits[0]) + 1, jmax) if fits.size else jmax
    return jw, float(shares[jw])


def step(state: IterationState, spec: ProblemSpec) -> IterationState:
    """One full outer step at the state's working x-truncation: solve, change
    variables, transport, and restrict the new state to ``working_jmax``."""
    t0 = time.perf_counter()
    n = state.n
    gamma_step = spec.dioph.gamma(n + 1)
    sched = KamSchedule(
        gamma=gamma_step, gbar=spec.gbar, N0=spec.N0,
        stop_tol=spec.kam_stop_tol, max_steps=spec.kam_max_steps,
    )
    red = reduce_operator(state.L, sched)
    if not red.converged:
        raise ReductionError(f"reducibility stalled at outer step {n}: {red.stop_reason}")
    inv_rep = {}
    h = invert_via_diagonalization(red, state.f, gamma_step, report=inv_rep)

    qp = linearize_quadratic(state.Q, h)
    conj_rep = {}
    res = conjugate_step(state.L, qp, spec.gbar, report=conj_rep)

    Qh = evaluate_quadratic(state.Q, h)
    f_raw = multiply(res.transform.r, apply_transform_inverse(res.transform, Qh, report=conj_rep))
    mean_defect = pi0(f_raw).norm(0.0)
    f_next = pi0_perp(f_raw)
    Q_next = push_quadratic(state.Q, res.transform, report=conj_rep)
    L_next = res.L_plus
    jmax_next, dropped = working_jmax(
        [f_next, L_next.B, L_next.C, *Q_next.coeffs.values()], f_next.jmax)

    s_n = spec.strips.s(n)
    sigma_n = spec.strips.sigma(n)
    margins = [inv_rep.get("melnikov_margin", float("nan"))]
    margins += [row["margin"] for row in red.trace]
    record = {
        "step": n,
        "s_n": s_n,
        "sigma_n": sigma_n,
        "norm_f": state.f.norm(max(0.0, s_n - 2.0 * sigma_n)),
        "norm_h": h.norm(max(0.0, min(spec.strips.s(n + 1), s_n))),
        "min_margin": float(min(margins)) if margins else float("nan"),
        "invert_residual_rel": inv_rep.get("residual_rel", 0.0),
        "kam_steps": red.diagnostics.get("steps", 0),
        "b2_norm": conj_rep.get("b2_norm", 0.0),
        "operator_hamiltonian_defect": conj_rep.get("operator_hamiltonian_defect", 0.0),
        "hamiltonian_defect": conj_rep.get("hamiltonian_defect", 0.0),
        "x_mean_defect": mean_defect,
        "q_total_norm": Q_next.total_norm(0.0),
        "jmax_work": state.f.jmax,
        "dropped_rel": dropped,
        "max_alias_rel": conj_rep.get("max_alias_rel", 0.0),
        "max_discard_rel": conj_rep.get("max_discard_rel", 0.0),
        "seconds": time.perf_counter() - t0,
    }
    log.info("outer step %d: |f|=%.3e |h|=%.3e margin=%.2e",
             n, record["norm_f"], record["norm_h"], record["min_margin"])
    return IterationState(
        n=n + 1, f=f_next.restrict(jmax_next), L=L_next.restrict(jmax_next),
        Q=Q_next.restrict(jmax_next),
        transforms=state.transforms + [res.transform],
        h_list=state.h_list + [h],
        records=state.records + [record],
    )


def assemble_solution(state: IterationState) -> AnalyticFunction:
    """u_n = h_0 + sum_{j>=1} T_1 ... T_j h_j.

    Each T_i acts at the truncation of step i, so v is embedded there first;
    u ends at the truncation of h_0, the config's jmax.
    """
    if not state.h_list:
        raise ValueError("no completed steps")
    u = state.h_list[0]
    for j in range(1, len(state.h_list)):
        v = state.h_list[j]
        for i in range(j - 1, -1, -1):
            T = state.transforms[i]
            v = apply_transform(T, v.embed(T.alpha.jmax))
        u = u + v
    return u


@dataclass
class ResidualReport:
    """Norms of the collocation defect F: the max over the grid and the l1
    norm of its coefficients.

    ``value`` is ``l1_coeff``: every grid value is a sum of the coefficients,
    so ``max_grid <= l1_coeff`` always holds (the max only absorbs FFT
    rounding in that comparison).
    """

    max_grid: float
    l1_coeff: float

    @property
    def value(self) -> float:
        return max(self.max_grid, self.l1_coeff)

    def as_dict(self):
        return {"max_grid": self.max_grid, "l1_coeff": self.l1_coeff}


def residual(spec: ProblemSpec, u: AnalyticFunction, oversample: Optional[int] = None) -> ResidualReport:
    """Collocation residual of the original equation at the zero strip.

    Evaluates (om.d_phi + dx^3) u + Q(u) + f by dense FFTs on the factor-2
    grid (a cross-check passes another ``oversample``), independent of the
    sparse solver algebra, and reports the max-grid and l1-coefficient norms
    of the defect.  u must be real (every solve iterate is): it carries only
    its x-modes j >= 0 through real FFTs, and l1 counts each half-spectrum
    column as often as it occurs in the full spectrum.
    """
    _grid._require_real(u, "residual argument")
    factor = spec.oversample if oversample is None else int(oversample)
    lat, jmax = spec.lattice, spec.jmax
    sizes = _grid.grid_sizes(lat, jmax, factor)
    m = lat.M
    axes = tuple(range(m + 1))
    npts = float(np.prod(sizes))
    c0, c1, c2, c3 = spec.c

    nfx = sizes[-1] // 2 + 1
    spec_u = _grid._place(u, sizes[:-1], nfx)
    fx = _grid._signed_freqs(sizes[-1])[:nfx].astype(float).reshape((1,) * m + (nfx,))
    dot = np.zeros(sizes[:-1])
    for ax in range(m):
        f_ax = _grid._signed_freqs(sizes[ax]).astype(float)
        shape = [1] * m
        shape[ax] = sizes[ax]
        dot = dot + spec.omega[ax] * f_ax.reshape(shape)
    dot = dot.reshape(sizes[:-1] + (1,))

    lin_spec = (1j * dot) * spec_u + (1j * fx) ** 3 * spec_u
    U = np.fft.irfftn(spec_u, s=sizes, axes=axes) * npts
    Ux = np.fft.irfftn(spec_u * (1j * fx), s=sizes, axes=axes) * npts
    inner1 = 3.0 * c3 * Ux**2 + 2.0 * c2 * U * Ux + c1 * U**2
    inner2 = c2 * Ux**2 + 2.0 * c1 * U * Ux + 3.0 * c0 * U**2
    q_spec = (np.fft.rfftn(inner1) * (1j * fx) ** 2 - np.fft.rfftn(inner2) * (1j * fx)) / npts
    f_spec = _grid._place(spec.forcing, sizes[:-1], nfx)

    total_spec = lin_spec + q_spec + f_spec
    F = np.fft.irfftn(total_spec, s=sizes, axes=axes) * npts
    max_grid = float(np.max(np.abs(F)))
    l1 = float(np.sum(np.abs(total_spec) * _grid._rfft_weights(sizes[-1])))
    return ResidualReport(max_grid, l1)


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    stop_reason: str
    residuals: list
    records: list
    eps_trace: dict
    solution: Optional[dict] = None
    failure: Optional[dict] = None

    def to_json_dict(self):
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "residuals": self.residuals,
            "records": [
                {k: v for k, v in row.items() if k != "seconds"} for row in self.records
            ],
            "eps_trace": self.eps_trace,
            "solution_modes": None if self.solution is None else len(self.solution["entries"]),
            "failure": self.failure,
        }


_NUMERIC_FAILURES = (
    SmallDivisorError,
    SeriesDivergenceError,
    SeriesRadiusError,
    NonContractionError,
    AliasingError,
    ReductionError,
)


def solve(spec: ProblemSpec, max_iters: int = 6) -> SolveReport:
    """Run the outer iteration until the collocation residual clears the target.

    Non-convergence (divisor breach, divergence, a non-finite residual or
    norm_f, exhausted strips or steps) is reported, not raised.
    """
    state = init_state(spec)
    residuals = []
    eps_meas = []
    if spec.forcing.norm(0.0) == 0.0:
        u = AnalyticFunction.zeros(spec.lattice, spec.jmax)
        rr = residual(spec, u)
        return SolveReport(True, 0, "zero-forcing", [rr.as_dict()], [],
                           {"eps0": 0.0, "measured": [], "theory": []},
                           solution=to_payload(u))
    stop = "max-iters"
    converged = False
    failure = None
    u = None
    for _ in range(max_iters):
        if spec.strips.s(state.n) - 2.0 * spec.strips.sigma(state.n) <= spec.s_bar:
            stop = "strip-exhausted"
            break
        f_before = state.f.norm(0.0)
        try:
            state = step(state, spec)
        except _NUMERIC_FAILURES as exc:
            stop = f"numerical-failure:{type(exc).__name__}"
            failure = {"message": str(exc)}
            if isinstance(exc, SmallDivisorError):
                failure["witness"] = exc.witness()
            break
        eps_meas.append(state.records[-1]["norm_h"])
        u = assemble_solution(state)
        rr = residual(spec, u)
        residuals.append(rr.as_dict())
        log.info("residual after step %d: %.3e", state.n - 1, rr.value)
        norm_f = state.f.norm(0.0)
        if not (math.isfinite(rr.value) and math.isfinite(norm_f)):
            stop = "non-finite"  # every comparison below would be False
            break
        if rr.value <= spec.residual_target:
            converged = True
            stop = "tolerance"
            break
        if norm_f > spec.divergence_factor * max(f_before, 1e-300):
            stop = "diverging"
            break
    eps0 = eps_meas[0] * math.e if eps_meas else 0.0
    theory = [eps0 * math.exp(-CHI**k) for k in range(len(eps_meas))]
    report = SolveReport(
        converged=converged,
        iterations=state.n,
        stop_reason=stop,
        residuals=residuals,
        records=state.records,
        eps_trace={"eps0": eps0, "measured": eps_meas, "theory": theory},
        solution=None if u is None else to_payload(u),
        failure=failure,
    )
    return report
