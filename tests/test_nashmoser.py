import numpy as np
import pytest

from airykam.analytic import AnalyticFunction, dx, multiply
from airykam.conjugation import evaluate_quadratic, linearize_quadratic
from airykam.errors import SmallDivisorError
from airykam.lattice import LatticeParams, MultiIndex
from airykam.nashmoser import (
    ProblemSpec,
    StripSchedule,
    assemble_solution,
    init_state,
    initial_quadratic_form,
    residual,
    solve,
    step,
)

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)

OMEGA = np.array([1.62509547, 1.8972138])  # admissible for the test lattice


def make_spec(lat, jmax, eps=1e-6, c=(1.0, 0.5, 0.25, 1.0), **kw):
    forcing = AnalyticFunction.from_modes(lat, jmax, [(E1, 1, eps / 2)])
    base = dict(c=c, forcing=forcing, S=1.0, s_bar=0.5, gbar=0.5, gamma0=0.2,
                omega=OMEGA)
    base.update(kw)
    return ProblemSpec(**base)


def test_strip_schedule_bookkeeping():
    st = StripSchedule(1.0, 0.5)
    assert st.sigma_m1 == pytest.approx(0.5 / 8.0)
    # s_n decreases and sum of the losses equals 6 sigma_{-1} in the limit
    total = sum(6.0 * st.sigma(n) for n in range(2000))
    assert total == pytest.approx(6.0 * st.sigma_m1, rel=1e-3)
    s_vals = [st.s(n) for n in range(6)]
    assert all(b < a for a, b in zip(s_vals, s_vals[1:]))
    # s_bar + sum sigma_n stays below every strip actually used
    s_inf = st.s(0) - sum(6.0 * st.sigma(n) for n in range(2000))
    assert s_inf > st.s_bar


def test_initial_quadratic_table(lat2, jmax):
    Q = initial_quadratic_form((1.0, 0.7, 0.0, 1.0), lat2, jmax)
    u = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 0.5)])  # cos x
    # c3 = 1 alone gives dxx(3 sin^2 x)... with c0 = 1 adding -dx(3 cos^2 x)
    got = evaluate_quadratic(Q, u)
    # symbolic oracle: 6 cos 2x from the cubic gradient term,
    # -3 dx(cos^2 x) = 3 sin 2x from the c0 term; c1 contributes nothing
    expect = AnalyticFunction.from_modes(
        lat2, jmax, [(ZERO, 2, 3.0), (ZERO, 2, -1.5j)]
    )
    assert (got - expect).norm(0.0) < 1e-13


def test_initial_quadratic_from_density_derivatives(lat2, jmax, rand_fct):
    """The table equals dxx(dG/du_x) - dx(dG/du) for the cubic density."""
    c0, c1, c2, c3 = 0.8, -0.4, 0.6, 1.1
    Q = initial_quadratic_form((c0, c1, c2, c3), lat2, jmax)
    u = rand_fct(3, amp=0.05, span=1)
    ux = dx(u, 1)
    inner1 = 3.0 * c3 * multiply(ux, ux) + 2.0 * c2 * multiply(u, ux) \
        + c1 * multiply(u, u)
    inner2 = c2 * multiply(ux, ux) + 2.0 * c1 * multiply(u, ux) \
        + 3.0 * c0 * multiply(u, u)
    oracle = dx(inner1, 2) - dx(inner2, 1)
    got = evaluate_quadratic(Q, u)
    assert (got - oracle).norm(0.0) <= 1e-12 * max(1.0, oracle.norm(0.0))


def test_init_state_checks_omega(lat2, jmax):
    spec = make_spec(lat2, jmax)
    state = init_state(spec)
    assert state.n == 0
    assert state.L.lambda3 == 1.0
    assert state.f is spec.forcing
    bad = make_spec(lat2, jmax)
    bad.omega = np.array([1.5, 1.5])
    with pytest.raises(SmallDivisorError):
        init_state(bad)


def test_linearize_Q_shortcut(lat2, jmax, rand_fct):
    Q = initial_quadratic_form((0.0, 0.0, 0.0, 1.0), lat2, jmax)
    h = rand_fct(4, amp=0.01)
    qp = linearize_quadratic(Q, h)
    # d3 = 6 c3 h_x for the pure cubic-gradient density
    assert (qp.d3 - 6.0 * dx(h, 1)).norm(0.0) < 1e-14
    assert qp.hamiltonian_defect() < 1e-14


def test_zero_forcing_trivial(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=0.0)
    rep = solve(spec)
    assert rep.converged and rep.iterations == 0
    assert rep.stop_reason == "zero-forcing"


def test_residual_trivial_cases(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-3)
    zero = AnalyticFunction.zeros(lat2, jmax)
    rr = residual(spec, zero)
    # F(0) = f: the collocation norm sees exactly the forcing
    assert rr.max_grid == pytest.approx(1e-3, rel=1e-10)
    spec0 = make_spec(lat2, jmax, eps=0.0)
    assert residual(spec0, zero).value == 0.0


def test_single_step_and_assemble(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-5)
    state = init_state(spec)
    state = step(state, spec)
    assert state.n == 1
    assert len(state.h_list) == 1 and len(state.transforms) == 1
    u1 = assemble_solution(state)
    assert (u1 - state.h_list[0]).norm(0.0) == 0.0  # one term: u = h_0
    rec = state.records[0]
    assert rec["norm_h"] > 0.0 and rec["min_margin"] > 1.0
    # the new forcing is quadratically small
    assert state.f.norm(0.0) <= 50.0 * state.h_list[0].norm(0.5) ** 2


def test_solve_converges_and_reports(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-6)
    rep = solve(spec, max_iters=4)
    assert rep.converged
    assert rep.iterations <= 4
    assert rep.residuals[-1]["max_grid"] <= spec.residual_target
    doc = rep.to_json_dict()
    assert doc["converged"] is True
    assert all("seconds" not in row for row in doc["records"])
    # strip bookkeeping recorded per step
    assert rep.records[0]["s_n"] == pytest.approx(StripSchedule(1.0, 0.5).s(0))


def test_solve_large_forcing_reports_failure(lat2):
    jmax = 8
    spec = make_spec(LatticeParams(1.0, 2, 5.0), jmax, eps=0.5,
                     residual_target=1e-12)
    rep = solve(spec, max_iters=3)
    assert not rep.converged
    assert rep.stop_reason != "tolerance"


def test_normalization_after_step(lat2, jmax):
    from airykam.analytic import pi0

    spec = make_spec(lat2, jmax, eps=1e-5)
    state = step(init_state(spec), spec)
    avg = pi0(state.L.B)
    const = complex(avg.get(ZERO, 0))
    drift = (avg - AnalyticFunction.constant(lat2, jmax, const)).norm(0.0)
    assert drift < 1e-12


def test_quadratic_norms_stay_bounded(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-5)
    state = init_state(spec)
    base = state.Q.total_norm(0.0)
    state = step(state, spec)
    assert state.Q.total_norm(0.0) <= 2.0 * base
