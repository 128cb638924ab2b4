import json
from pathlib import Path

import numpy as np
import pytest

from airykam import _grid, cli, nashmoser
from airykam.analytic import AnalyticFunction, dx, from_payload, multiply
from airykam.config import load_config, problem_spec_from
from airykam.conjugation import evaluate_quadratic, linearize_quadratic
from airykam.errors import AliasingError, SmallDivisorError
from airykam.lattice import LatticeParams, MultiIndex
from airykam.nashmoser import (
    ProblemSpec,
    ResidualReport,
    StripSchedule,
    assemble_solution,
    correct,
    init_state,
    initial_quadratic_form,
    residual,
    solve,
    step,
    transport,
    working_jmax,
)
from oracles import solve_by_full_steps

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)

OMEGA = np.array([1.62509547, 1.8972138])  # admissible for the test lattice
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the record fields of a step's transport, which the step that converges skips
TRANSPORT_KEYS = {"b2_norm", "dropped_rel", "hamiltonian_defect", "max_alias_rel",
                  "max_discard_rel", "operator_hamiltonian_defect", "q_total_norm",
                  "x_mean_defect"}


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
    # s_n - 2 sigma_n >= s_{n+1} > S - 7 sigma_{-1} >= s_bar + min(S - s_bar, 1) / 8:
    # every outer step keeps a strip above s_bar, with S - s_bar <= 1 and > 1
    for S, s_bar in ((0.5 + 1e-7, 0.5), (1.0, 0.5), (1.5, 0.5), (10.0, 0.5)):
        st = StripSchedule(S, s_bar)
        floor = min(S - s_bar, 1.0) / 8.0
        assert all(st.s(n) - 2.0 * st.sigma(n) - s_bar > floor for n in range(400))


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


def test_correct_appends_h_and_its_record_and_keeps_the_triple(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-5)
    state = step(init_state(spec), spec)
    solved = correct(state, spec)
    assert solved.n == state.n + 1 == 2
    assert solved.h_list[:-1] == state.h_list and len(solved.h_list) == 2
    assert solved.records[:-1] == state.records and solved.records[-1]["step"] == 1
    assert not TRANSPORT_KEYS & set(solved.records[-1])
    assert solved.f is state.f and solved.L is state.L and solved.Q is state.Q
    assert solved.transforms == state.transforms


def test_transport_completes_the_last_record_only(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-5)
    solved = correct(step(init_state(spec), spec), spec)
    moved = transport(solved, spec)
    assert moved.h_list is solved.h_list and moved.n == 2
    assert moved.transforms[:-1] == solved.transforms and len(moved.transforms) == 2
    *earlier, last = moved.records
    assert earlier == solved.records[:-1]
    assert set(last) == set(solved.records[-1]) | TRANSPORT_KEYS
    assert {k: last[k] for k in solved.records[-1] if k != "seconds"} == \
        {k: v for k, v in solved.records[-1].items() if k != "seconds"}
    assert moved.f is not solved.f and moved.Q is not solved.Q


def test_incremental_assembly_equals_the_full_rebuild_bitwise(lat2, jmax, monkeypatch):
    """u_n = u_{n-1} + T_1 ... T_n h_n applies n - 1 transforms, and is the
    full sum bit for bit."""
    calls = []
    apply = nashmoser.apply_transform
    monkeypatch.setattr(nashmoser, "apply_transform",
                        lambda T, v: calls.append(T) or apply(T, v))
    spec = make_spec(lat2, jmax, eps=1e-5)
    state, u = init_state(spec), None
    for n in range(3):
        state = step(state, spec)
        del calls[:]
        u = assemble_solution(state, u)
        assert len(calls) == n
        assert np.array_equal(u.data, assemble_solution(state).data)
    assert state.transforms[1].alpha.jmax < jmax       # the embeddings are exercised


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
    # step 0's change of variables needs (1 + z)^{-1/3} at a z of norm 4.8, past its radius 0.9
    assert rep.stop_reason == "numerical-failure:SeriesRadiusError"
    assert rep.iterations == 0 and rep.residuals == []
    assert "inv-cbrt" in rep.failure["message"]


def test_solve_stops_when_the_forcing_grows(lat2, jmax, monkeypatch):
    """With DIVERGENCE_FACTOR = 0 any nonzero f_1 counts as growth, and a
    target no step meets leaves the divergence check as the only stop."""
    monkeypatch.setattr(nashmoser, "DIVERGENCE_FACTOR", 0.0)
    spec = make_spec(lat2, jmax, residual_target=1e-300)
    rep = solve(spec, max_iters=3)
    assert rep.stop_reason == "diverging"
    assert not rep.converged
    assert rep.iterations == 1 and len(rep.residuals) == 1


def test_normalization_after_step(lat2, jmax):
    from airykam.analytic import pi0

    spec = make_spec(lat2, jmax, eps=1e-5)
    state = step(init_state(spec), spec)
    avg = pi0(state.L.B)
    const = complex(avg.get(ZERO, 0))
    # the state lives at the step's working x-truncation, avg.jmax <= jmax
    drift = (avg - AnalyticFunction.constant(lat2, avg.jmax, const)).norm(0.0)
    assert drift < 1e-12


def test_quadratic_norms_stay_bounded(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-5)
    state = init_state(spec)
    base = state.Q.total_norm(0.0)
    state = step(state, spec)
    assert state.Q.total_norm(0.0) <= 2.0 * base


# -- the working x-truncation ---------------------------------------------------


def test_working_jmax_keeps_the_spectrum_and_a_guard_mode(lat2, jmax, monkeypatch):
    wide = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 1.0), (E1, 3, 1e-12)])
    # 1e-20 of the norm at |j| = 5: below DROP_REL, so it is dropped and reported
    faint = AnalyticFunction.from_modes(lat2, jmax, [(E1, 2, 1.0), (E1, 5, 1e-20)])
    zero = AnalyticFunction.zeros(lat2, jmax)
    jw, dropped = working_jmax([wide, faint, zero], jmax)
    assert jw == 4
    assert dropped == pytest.approx(1e-20, rel=1e-12)
    assert working_jmax([zero], jmax) == (1, 0.0)
    full = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 1.0), (E1, jmax, 1e-12)])
    assert working_jmax([wide, full], jmax) == (jmax, 0.0)
    monkeypatch.setattr(nashmoser, "DROP_REL", 0.0)
    assert working_jmax([wide, faint, zero], jmax) == (jmax, 0.0)


def test_state_restricts_to_the_working_truncation(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-6)
    state = step(init_state(spec), spec)
    jw = 6     # h_0 holds |j| <= 5 to DROP_REL
    assert state.records[0]["jmax_work"] == jmax
    assert state.f.jmax == state.L.jmax == state.Q.jmax == jw
    assert all(q.jmax == jw for q in state.Q.coeffs.values())
    assert state.h_list[0].jmax == state.transforms[0].alpha.jmax == jmax


def test_shrunk_solve_matches_the_full_truncation(monkeypatch):
    cfg = load_config(CONFIGS / "solve_small.cfg")
    cfg["schedule.residual_target"] = 1e-12      # a second step, at the working truncation
    spec = problem_spec_from(cfg)
    shrunk = solve(spec, max_iters=3)
    monkeypatch.setattr(nashmoser, "DROP_REL", 0.0)
    full = solve(spec, max_iters=3)
    assert [r["jmax_work"] for r in full.records] == [16, 16]
    assert [r["jmax_work"] for r in shrunk.records] == [16, 6]
    assert shrunk.converged and full.converged
    assert abs(shrunk.residuals[-1]["l1_coeff"] - full.residuals[-1]["l1_coeff"]) <= 1e-15
    assert shrunk.solution["jmax"] == full.solution["jmax"] == 16


def test_forcing_at_jmax_never_shrinks(lat2, jmax):
    forcing = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 5e-7), (E1, jmax, 1e-9)])
    spec = make_spec(lat2, jmax, forcing=forcing, residual_target=1e-30)
    state = init_state(spec)
    for _ in range(2):
        state = step(state, spec)
        assert state.f.jmax == jmax
    assert [r["jmax_work"] for r in state.records] == [jmax, jmax]
    assert [r["dropped_rel"] for r in state.records] == [0.0, 0.0]


def test_jmax_work_never_grows(lat2, jmax):
    spec = make_spec(lat2, jmax, eps=1e-6, residual_target=1e-30)
    rep = solve(spec, max_iters=3)
    work = [r["jmax_work"] for r in rep.records]
    assert len(work) == 3 and work[0] == jmax and work[-1] < jmax
    assert all(b <= a for a, b in zip(work, work[1:]))
    assert all(0.0 <= r["dropped_rel"] < nashmoser.DROP_REL for r in rep.records)
    # u lives at the config's truncation, whatever the steps ran at
    assert rep.solution["jmax"] == jmax


# -- the collocation residual against its full-spectrum form ------------------


def test_records_hold_the_largest_shares_of_the_steps_substitution_passes(lat2, jmax,
                                                                         monkeypatch):
    seen = []
    extract = _grid._extract

    def spy(vals, lattice, jmax, *, context, report=None):
        out = extract(vals, lattice, jmax, context=context, report=report)
        if context.startswith("substitute"):
            seen.append((report["alias_rel"], report["discard_rel"]))
        return out

    monkeypatch.setattr(_grid, "_extract", spy)
    spec = make_spec(lat2, jmax, eps=1e-5)
    state = step(init_state(spec), spec)
    rec = state.records[0]
    assert len(seen) >= 11            # push_quadratic alone moves 11 coefficients
    assert rec["max_alias_rel"] == max(a for a, _ in seen) > 0.0
    assert rec["max_discard_rel"] == max(d for _, d in seen) > 0.0


def test_report_with_grid_limits_is_byte_identical_across_reruns(tmp_path):
    config = solve_small_config(tmp_path, 1e-12)     # two steps: the first transports
    reports = []
    for k in (1, 2):
        out = tmp_path / f"run{k}"
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    *transported, converged = json.loads(reports[0])["records"]
    assert transported
    for rec in transported:
        assert 0.0 < rec["max_alias_rel"] <= _grid.ALIAS_TOL
        assert 0.0 < rec["max_discard_rel"] < 1.0
    assert not TRANSPORT_KEYS & set(converged)


# -- the step that converges does not transport -------------------------------


def solve_small_spec(target=None):
    cfg = load_config(CONFIGS / "solve_small.cfg")
    if target is not None:
        cfg["schedule.residual_target"] = target
    return problem_spec_from(cfg)


def solve_small_config(tmp_path, target):
    """solve_small.cfg with another residual target, written under tmp_path."""
    shipped = (CONFIGS / "solve_small.cfg").read_text()
    line = "schedule.residual_target = 1e-10"
    assert line in shipped
    config = tmp_path / "solve_small.cfg"
    config.write_text(shipped.replace(line, f"schedule.residual_target = {target!r}"))
    return config


def failing_transport(monkeypatch, from_call):
    """Make conjugate_step raise AliasingError from its ``from_call``-th call
    on; returns the list of calls, which a test may empty to start over."""
    calls = []
    conjugate = nashmoser.conjugate_step

    def fake(*args, **kwargs):
        calls.append(args)
        if len(calls) >= from_call:
            raise AliasingError("injected transport failure")
        return conjugate(*args, **kwargs)

    monkeypatch.setattr(nashmoser, "conjugate_step", fake)
    return calls


def without_seconds(records):
    return [{k: v for k, v in rec.items() if k != "seconds"} for rec in records]


@pytest.mark.parametrize("target, steps", [(None, 1), (1e-12, 2)], ids=["shipped", "1e-12"])
def test_solve_matches_the_loop_of_full_steps_bitwise(target, steps):
    spec = solve_small_spec(target)
    rep = solve(spec, max_iters=4)
    full = solve_by_full_steps(spec, max_iters=4)
    assert rep.converged and full.converged
    assert rep.iterations == full.iterations == steps
    assert json.dumps(rep.solution) == json.dumps(full.solution)
    assert json.dumps(rep.residuals) == json.dumps(full.residuals)
    assert rep.eps_trace == full.eps_trace
    *earlier, last = without_seconds(full.records)
    assert without_seconds(rep.records) == earlier + [
        {k: v for k, v in last.items() if k not in TRANSPORT_KEYS}]


@pytest.mark.parametrize("target, stop, transports", [(1e-12, "tolerance", 1),
                                                      (1e-30, "max-iters", 2)])
def test_solve_transports_every_step_but_the_one_that_converges(monkeypatch, target, stop,
                                                                 transports):
    calls = []
    push = nashmoser.push_quadratic
    monkeypatch.setattr(nashmoser, "push_quadratic",
                        lambda *args, **kwargs: calls.append(args) or push(*args, **kwargs))
    rep = solve(solve_small_spec(target), max_iters=2)
    assert rep.stop_reason == stop and rep.iterations == 2
    assert len(calls) == transports
    assert all(TRANSPORT_KEYS <= set(rec) for rec in rep.records[:transports])
    assert all(not TRANSPORT_KEYS & set(rec) for rec in rep.records[transports:])


def test_a_transport_failure_on_the_converged_step_is_never_reached(tmp_path, monkeypatch):
    """Step 1 of solve_small at 1e-12 meets the target; its transport would
    fail, but the solve stops before it and exits 0."""
    config = solve_small_config(tmp_path, 1e-12)
    calls = failing_transport(monkeypatch, 2)
    full = solve_by_full_steps(problem_spec_from(load_config(config)), max_iters=4)
    assert full.stop_reason == "numerical-failure:AliasingError" and full.iterations == 1
    del calls[:]
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["converged"] is True and doc["stop_reason"] == "tolerance"
    assert doc["iterations"] == 2 and len(doc["residuals"]) == 2 and doc["failure"] is None
    assert len(calls) == 1


@pytest.mark.parametrize("from_call, iterations", [(1, 0), (2, 1)])
def test_a_transport_failure_before_the_target_is_met_reports_as_the_full_steps_do(
        monkeypatch, from_call, iterations):
    spec = solve_small_spec(1e-30)
    calls = failing_transport(monkeypatch, from_call)
    rep = solve(spec, max_iters=4)
    del calls[:]
    full = solve_by_full_steps(spec, max_iters=4)
    assert rep.stop_reason == "numerical-failure:AliasingError"
    assert rep.iterations == iterations and len(rep.residuals) == iterations
    assert json.dumps(rep.to_json_dict()) == json.dumps(full.to_json_dict())
    assert json.dumps(rep.solution) == json.dumps(full.solution)


def place_fftn(u, sizes):
    """u's full spectrum, every x-mode |j| <= jmax, in FFT order on the grid ``sizes``."""
    rows = np.zeros((u.data.shape[0], sizes[-1]), dtype=complex)
    rows[:, np.arange(-u.jmax, u.jmax + 1) % sizes[-1]] = u.data
    spec = np.zeros(sizes, dtype=complex)
    spec[_grid._grid_index(u.lattice, sizes)] = rows
    return spec


def residual_fftn(spec, u):
    """The residual by complex FFTs of the full spectrum: the oracle of the
    half-spectrum path that real iterates take."""
    sizes = _grid.grid_sizes(spec.lattice, spec.jmax, spec.oversample)
    m = spec.lattice.M
    npts = float(np.prod(sizes))
    c0, c1, c2, c3 = spec.c
    spec_u = place_fftn(u, sizes)
    fx = _grid._signed_freqs(sizes[-1]).astype(float).reshape((1,) * m + (sizes[-1],))
    dot = np.zeros(sizes[:-1])
    for ax in range(m):
        shape = [1] * m
        shape[ax] = sizes[ax]
        dot = dot + spec.omega[ax] * _grid._signed_freqs(sizes[ax]).astype(float).reshape(shape)
    dot = dot.reshape(sizes[:-1] + (1,))
    lin_spec = (1j * dot) * spec_u + (1j * fx) ** 3 * spec_u
    U = np.fft.ifftn(spec_u) * npts
    Ux = np.fft.ifftn(spec_u * (1j * fx)) * npts
    inner1 = 3.0 * c3 * Ux**2 + 2.0 * c2 * U * Ux + c1 * U**2
    inner2 = c2 * Ux**2 + 2.0 * c1 * U * Ux + 3.0 * c0 * U**2
    q_spec = (np.fft.fftn(inner1) * (1j * fx) ** 2 - np.fft.fftn(inner2) * (1j * fx)) / npts
    total_spec = lin_spec + q_spec + place_fftn(spec.forcing, sizes)
    F = np.fft.ifftn(total_spec) * npts
    return ResidualReport(float(np.max(np.abs(F))), float(np.sum(np.abs(total_spec))))


@pytest.fixture(scope="module")
def solve_small_run():
    spec = problem_spec_from(load_config(CONFIGS / "solve_small.cfg"))
    return spec, solve(spec, max_iters=4)


def test_residual_half_spectrum_matches_fftn(solve_small_run):
    spec, rep = solve_small_run
    u = from_payload(rep.solution)
    oracle = residual_fftn(spec, u)
    got = residual(spec, u)
    assert abs(got.l1_coeff - oracle.l1_coeff) <= 1e-17
    assert abs(got.max_grid - oracle.max_grid) <= 1e-17


def test_residual_value_is_l1_coeff(solve_small_run):
    _spec, rep = solve_small_run
    assert rep.converged and rep.residuals
    for rr in rep.residuals:
        assert rr["max_grid"] <= rr["l1_coeff"] * (1 + 1e-12)


def test_residual_factor_two_matches_factor_four(solve_small_run):
    """Q is quadratic, so the factor-2 grid of spec.oversample already holds
    the whole band of F(u): a factor-4 grid gives the same l1 to rounding."""
    spec_small, rep = solve_small_run
    lat3, omega3 = LatticeParams(1.0, 3, 4.0), np.array([1.2357, 1.7113, 1.4142])
    spec3 = make_spec(lat3, 8, omega=omega3)
    rng = np.random.default_rng(5)
    shape = AnalyticFunction.zeros(lat3, 8).data.shape
    dense = AnalyticFunction.from_array(
        lat3, 8, 1e-6 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    for spec, u in ((spec_small, from_payload(rep.solution)), (spec3, dense)):
        assert spec.oversample == 2
        exact, fine = residual(spec, u), residual(spec, u, oversample=4)
        assert abs(exact.l1_coeff - fine.l1_coeff) <= 1e-15
        assert exact.max_grid <= exact.l1_coeff and fine.max_grid <= fine.l1_coeff
    # Q's share of the l1 is far above the bound, so an aliased Q would show.
    linear = make_spec(lat3, 8, c=(0.0,) * 4, omega=omega3)
    assert abs(residual(linear, dense).l1_coeff - residual(spec3, dense).l1_coeff) > 1e-6


def test_problem_spec_takes_no_oversample(lat2, jmax):
    with pytest.raises(TypeError):
        make_spec(lat2, jmax, oversample=4)
