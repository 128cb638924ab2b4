import json

import numpy as np
import pytest

from airykam import cli, opalg
from airykam.analytic import AnalyticFunction, dx, dx_inv, om_dphi, pi0_perp
from airykam.conjugation import symplectic_pairing
from airykam.errors import SmallDivisorError
from airykam.homological import solve_diagonal
from airykam.lattice import LatticeParams, MultiIndex
from airykam.opalg import (
    DifferentialOperator,
    OperatorMatrix,
    commutator,
    compose,
    dense_labels,
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
from airykam.reducibility import (
    KamSchedule,
    Reduction,
    invert_via_diagonalization,
    kam_iterate,
    kam_step,
    order_one_reduction,
    reduce_operator,
)
from oracles import compare_reductions, dense_operator, symmetry_residual, two_series_offdiag

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)
E2 = MultiIndex.unit(2)


def fixture_operator(lat, jmax, omega, lam1=0.05, eps=1e-3):
    """B = lam1 + eps cos x cos phi_1, C = eps sin x."""
    B = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 1, eps / 4), (E1, -1, eps / 4)]
    ) + lam1
    C = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, -0.5j * eps)])
    return DifferentialOperator(omega, 1.0, B, C)


def sparse_operator(lat, jmax, omega):
    """Coefficients on site 1 alone: B = 0.05 plus two site-1 modes, C one site-1 mode."""
    B = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 1, 5e-4), (MultiIndex((2, 0)), 2, 3e-4 + 1e-4j)]
    ) + 0.05
    C = AnalyticFunction.from_modes(lat, jmax, [(E1, 1, -5e-4j)])
    return DifferentialOperator(omega, 1.0, B, C)


def schedule(**kw):
    base = dict(gamma=1e-3, gbar=0.5, N0=8.0, stop_tol=1e-10, max_steps=30)
    base.update(kw)
    return KamSchedule(**base)


# -- order-one reduction ------------------------------------------------------


def test_order_one_trivial(lat2, jmax, omega2):
    zero = AnalyticFunction.zeros(lat2, jmax)
    const = AnalyticFunction.constant(lat2, jmax, 0.3)
    res = order_one_reduction(1.0, const, zero, omega2)
    assert not res.G.blocks
    assert op_norm(res.R0, 0.0) == 0.0


def test_order_one_cosine_identity(lat2, jmax, omega2):
    # a1 = cos x, lambda1 = 0: g = -sin(x)/3 and 3 g_x + a1 = 0 exactly
    a1 = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 0.5)])
    zero = AnalyticFunction.zeros(lat2, jmax)
    res = order_one_reduction(1.0, a1, zero, omega2)
    sin_x = dx_inv(a1)
    assert (res.g + sin_x * (1.0 / 3.0)).norm(0.0) < 1e-15
    resid = 3.0 * dx(res.g, 1) + a1
    assert resid.norm(0.0) < 1e-15


def test_order_one_interior_residual(lat2, jmax, omega2):
    L = fixture_operator(lat2, jmax, omega2)
    res = order_one_reduction(1.0, L.B, L.C, omega2)
    conj = (exp_conjugate(res.G, materialize(L))
            + lie_series(res.G, phi_derivative(res.G, omega2))[0])
    lam1 = L.lambda1()
    target = x_symbol_op(lat2, jmax, lambda j: 1j * (-j**3 + lam1 * j)) + res.R0
    window = restrict(conj - target, jmax - 3, lat2.K - 1.0)
    assert op_norm(window, 0.0) < 1e-9


def _three_series_R0(L, res):
    """Reference R0: separate Lie series for the omega.d_phi, dx^3 and P conjugations."""
    lat, jmax = L.lattice, L.jmax
    g, G = res.g, res.G
    P = compose(mult_op(L.B), dx_op(lat, jmax)) + mult_op(L.C)
    piece1, _ = lie_series(G, smoothing_generator_op(om_dphi(g, L.omega)))
    s3, _ = lie_series(G, commutator(dx_op(lat, jmax, 3), G))
    piece2 = L.lambda3 * (s3 - compose(mult_op(3.0 * dx(g, 1)), dx_op(lat, jmax)))
    piece3 = exp_conjugate(G, P) - P
    return piece1 + piece2 + piece3 + mult_op(L.C)


def _two_series_P(state, new):
    """Reference P_{k+1} = P_high + dust + tail1 + tail2 for the step state -> new."""
    lat, jmax = state.P.lattice, state.jmax
    P_low, P_high = split_by_norm(state.P, state.N)
    Psi = new.gens[-1]
    Z = OperatorMatrix(lat, jmax, {ZERO: np.diag(1j * (new.r - state.r))})
    zdiag = np.diag(state.P.blocks[ZERO]) if ZERO in state.P.blocks else np.zeros(2 * jmax + 1)
    dust = OperatorMatrix(lat, jmax, {ZERO: np.diag(zdiag)}) - Z
    tail1, _ = lie_series(Psi, commutator(Z + dust - P_low, Psi), start_factor=2)
    tail2 = exp_conjugate(Psi, state.P) - state.P
    return P_high + dust + tail1 + tail2


@pytest.mark.parametrize("make,jmax_case,K", [
    (fixture_operator, 12, 6.0),
    (sparse_operator, 16, 8.0),
])
def test_one_series_matches_separate_series(omega2, make, jmax_case, K):
    """The single Lie series of each conjugation equals the sum of the old ones."""
    lat = LatticeParams(1.0, 2, K)
    L = make(lat, jmax_case, omega2)
    res = order_one_reduction(1.0, L.B, L.C, omega2)
    assert res.report["lie_terms"] > 1
    ref = _three_series_R0(L, res)
    assert op_norm(res.R0 - ref, 0.0) <= 1e-15 * max(1.0, op_norm(ref, 0.0))
    sched = schedule()
    state = Reduction(1.0, L.lambda1(), res.R0, sched.N0)
    for _ in range(3):
        new = kam_step(state, omega2, sched)
        assert new.gens[-1].index.size
        ref = _two_series_P(state, new)
        assert op_norm(new.P - ref, 0.0) <= 1e-15 * max(1.0, op_norm(state.P, 0.0))
        state = new


def test_order_one_rejects_phi_dependent_average(lat2, jmax, omega2):
    a1 = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.1)])
    zero = AnalyticFunction.zeros(lat2, jmax)
    with pytest.raises(ValueError):
        DifferentialOperator(omega2, 1.0, a1, zero).lambda1()


# -- single KAM steps -----------------------------------------------------------


def test_kam_step_trivial(lat2, jmax, omega2):
    P0 = OperatorMatrix(lat2, jmax)
    st = Reduction(1.0, 0.0, P0, 8.0)
    out = kam_step(st, omega2, schedule())
    assert out.k == 1
    assert op_norm(out.P, 0.0) == 0.0
    assert np.all(out.r == 0.0)


def test_kam_step_single_block_vanishes(lat2, jmax, omega2):
    """A lone off-diagonal pair is removed exactly in one step."""
    nj = 2 * jmax + 1
    blk = np.zeros((nj, nj), dtype=complex)
    blk[3 + jmax, 1 + jmax] = 1e-3 * (0.7 + 0.2j)
    P0 = OperatorMatrix(lat2, jmax, {E1: blk}, real=True)  # mirror filled in
    st = Reduction(1.0, 0.0, P0, 8.0)
    out = kam_step(st, omega2, schedule())
    assert op_norm(out.P, 0.0) < 1e-18
    assert np.max(np.abs(out.r)) == 0.0
    # the generator entry is the divided coefficient
    psi = out.gens[0].blocks[E1][3 + jmax, 1 + jmax]
    divisor = 1j * (omega2[0] + (-(3.0**3) ) - (-(1.0**3)))
    assert psi == pytest.approx(P0.blocks[E1][3 + jmax, 1 + jmax] / -divisor)


def test_kam_step_diagonal_absorbed(lat2, jmax, omega2):
    nj = 2 * jmax + 1
    z = np.zeros(nj)
    for j in range(1, jmax + 1):
        z[j + jmax] = 1e-3 / j
        z[-j + jmax] = -1e-3 / j
    P0 = OperatorMatrix(lat2, jmax, {ZERO: np.diag(1j * z)}, real=True)
    st = Reduction(1.0, 0.0, P0, 8.0)
    out = kam_step(st, omega2, schedule())
    assert op_norm(out.P, 0.0) < 1e-18
    assert out.r[1 + jmax] == pytest.approx(1e-3)
    vals = out.omega_values()
    assert np.max(np.abs(vals + vals[::-1])) < 1e-14


def test_kam_step_melnikov_breach(lat2, jmax):
    resonant = np.array([1.7, 1.8])  # 2(w1 + w2) = 7 = 2^3 - 1
    nj = 2 * jmax + 1
    blk = np.zeros((nj, nj), dtype=complex)
    blk[2 + jmax, 1 + jmax] = 1e-4
    P0 = OperatorMatrix(lat2, jmax, {MultiIndex((2, 2)): blk}, real=True)
    st = Reduction(1.0, 0.0, P0, 8.0)
    with pytest.raises(SmallDivisorError):
        kam_step(st, resonant, schedule())


def test_kam_quadratic_decay(lat2, omega2):
    jmax = 12
    L = fixture_operator(lat2, jmax, omega2)
    oor = order_one_reduction(1.0, L.B, L.C, omega2)
    st = Reduction(1.0, 0.05, oor.R0, 8.0)
    result = kam_iterate(st, omega2, schedule())
    assert result.converged
    norms = [row["p_norm"] for row in result.trace]
    norms.append(op_norm(result.P, 0.0))
    logs = np.log(norms)
    diffs = np.diff(logs)
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))  # concave decay


def test_reduction_counts_its_steps_from_the_trace(lat2, omega2):
    L = fixture_operator(lat2, 12, omega2)
    red = reduce_operator(L, schedule())
    assert red.converged and red.L is L
    assert red.k == red.diagnostics["steps"] == len(red.trace) > 0
    assert len(red.gens) == red.k + 1          # G, then one Psi per KAM step


def test_a_max_steps_stop_is_not_converged(lat2, omega2):
    red = reduce_operator(fixture_operator(lat2, 12, omega2), schedule(max_steps=1))
    assert red.stop_reason == red.diagnostics["kam_stop"] == "max-steps"
    assert not red.converged and red.k == 1


# -- full reduction ---------------------------------------------------------------


def test_reduce_constant_coefficients(lat2, jmax, omega2):
    zero = AnalyticFunction.zeros(lat2, jmax)
    L = DifferentialOperator(omega2, 1.0, zero + 0.05, zero)
    red = reduce_operator(L, schedule(), verify_window=(jmax - 2, lat2.K))
    assert red.converged and not red.gens
    vals = red.omega_values()
    j = np.arange(-jmax, jmax + 1, dtype=float)
    expect = -j**3 + 0.05 * j
    expect[jmax] = 0.0
    assert np.max(np.abs(vals - expect)) == 0.0
    assert red.diagnostics["offdiag_residual"] == 0.0


def test_reduce_fixture_end_to_end(lat2, omega2):
    jmax = 12
    L = fixture_operator(lat2, jmax, omega2)
    red = reduce_operator(L, schedule(), verify_window=(jmax - 3, lat2.K - 1.0))
    assert red.converged
    assert red.diagnostics["offdiag_residual"] <= 1e-9
    vals = red.omega_values()
    assert np.max(np.abs(vals + vals[::-1])) < 1e-10
    # pairing preservation for the smoothing-generator stage (the exact
    # symplectic class pi0_perp g dx^{-1})
    rng = np.random.default_rng(5)
    shared = [(ZERO, 1), (E1, 2), (MultiIndex((1, -1)), 3)]
    u = AnalyticFunction.from_modes(
        lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
    )
    v = AnalyticFunction.from_modes(
        lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
    )
    G = red.gens[0]
    p0 = symplectic_pairing(u, v)
    p1 = symplectic_pairing(exp_apply(G, u), exp_apply(G, v))
    assert abs(p1 - p0) <= 1e-8 * abs(p0)
    # M maps real-on-real to real-on-real
    assert symmetry_residual(red.apply_M(u)) == 0.0


# the settings of the reduce_sparse benchmark workload: coefficients on site 1
# alone, K = 12, jmax = 32, so the dispersion reaches 3.3e4
SPARSE_REDUCE_CFG = """\
problem.eta = 1.0
problem.gbar = 0.5
problem.gamma0 = 0.2
truncation.M = 2
truncation.K = 12.0
truncation.jmax = 32
omega.sample = true
omega.seed = 7
reduce.lambda3 = 1.0
reduce.B.entries = [[[], 0, 0.05, 0.0], [[[1, 1]], 1, 5e-4, 0.0], [[[1, 2]], 2, 3e-4, 1e-4]]
reduce.C.entries = [[[[1, 1]], 1, 0.0, -5e-4]]
reduce.gamma = 0.001
schedule.N0 = 12.0
schedule.stop_tol = 1e-10
schedule.max_steps = 40
"""


def _sparse_reduce(tmp_path, monkeypatch, series_tol, tag):
    """The report.json diagnostics of a reduce run on SPARSE_REDUCE_CFG with
    opalg.SERIES_TOL = series_tol, and (reduction, verify window) of the run."""
    monkeypatch.setattr(opalg, "SERIES_TOL", series_tol)
    runs = []

    def recorded(L, sched, **kw):
        runs.append((reduce_operator(L, sched, **kw), kw["verify_window"]))
        return runs[-1][0]

    monkeypatch.setattr(cli, "reduce_operator", recorded)
    cfg, out = tmp_path / "sparse.cfg", tmp_path / tag
    cfg.write_text(SPARSE_REDUCE_CFG)
    assert cli.main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["diagnostics"], runs[0]


def test_window_residual_holds_at_the_shipped_series_tolerance(tmp_path, monkeypatch):
    """The window's one series per generator stops relative to bounded terms, so
    offdiag_residual at the shipped SERIES_TOL agrees with a SERIES_TOL = 1e-22
    run within 1e-4 relative (4.7e-6 here), and with the two-series window of
    ``exp_conjugate``, run at 1e-22, within 2e-4 (4.0e-5 here); at the shipped
    tolerance that window read 4.31e-14 against 3.32e-14.  diag_mismatch is
    the rounding of the diagonal it compares, whose largest entry in the
    window is diag_scale: under 1e-15 of it."""
    shipped, (red, window) = _sparse_reduce(tmp_path, monkeypatch, opalg.SERIES_TOL, "shipped")
    assert shipped["window_lie_terms"] and len(shipped["window_lie_terms"]) == len(red.gens)
    vals, j = red.omega_values(), np.arange(-red.jmax, red.jmax + 1)
    assert shipped["diag_scale"] == np.max(np.abs(vals[np.abs(j) <= window[0]])) > 1e4
    assert shipped["diag_mismatch"] <= 1e-15 * shipped["diag_scale"]
    fine, (red, window) = _sparse_reduce(tmp_path, monkeypatch, 1e-22, "fine")
    value = shipped["offdiag_residual"]
    assert abs(value - fine["offdiag_residual"]) <= 1e-4 * fine["offdiag_residual"]
    old = two_series_offdiag(red, window)
    assert abs(value - old) <= 2e-4 * old


def test_invert_via_diagonalization(lat2, omega2):
    jmax = 12
    L = fixture_operator(lat2, jmax, omega2)
    red = reduce_operator(L, schedule())
    rng = np.random.default_rng(5)
    modes = [
        (MultiIndex((int(rng.integers(-1, 2)), 0)), int(rng.integers(1, 5)),
         1e-4 * complex(rng.normal(), rng.normal()))
        for _ in range(5)
    ]
    f = pi0_perp(AnalyticFunction.from_modes(lat2, jmax, modes))
    rep = {}
    h = invert_via_diagonalization(red, f, 1e-3, report=rep)
    assert rep["residual_rel"] <= 1e-8
    # trivial reduction falls back to the diagonal solve
    zero = AnalyticFunction.zeros(lat2, jmax)
    L0 = DifferentialOperator(omega2, 1.0, zero, zero)
    red0 = reduce_operator(L0, schedule())
    h0 = invert_via_diagonalization(red0, f, 1e-3)
    assert (h0 - solve_diagonal(f, omega2, red0.omega_values(), 1e-3)).norm(0.0) == 0.0
    assert invert_via_diagonalization(red, AnalyticFunction.zeros(lat2, jmax), 1e-3).norm(0.0) == 0.0
    del h


def test_invert_matches_dense_solve(omega2):
    lat = LatticeParams(1.0, 2, 4.0)
    jmax = 15
    L = fixture_operator(lat, jmax, omega2)
    red = reduce_operator(L, schedule(stop_tol=1e-12))
    labels, _ = dense_labels(lat, jmax)
    col = {lab: i for i, lab in enumerate(labels)}
    dense = dense_operator(L)
    rng = np.random.default_rng(3)
    for trial in range(3):
        modes = []
        for _ in range(5):
            l = MultiIndex((int(rng.integers(-1, 2)), int(rng.integers(-1, 2))))
            j = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
            modes.append((l, j, 1e-4 * complex(rng.normal(), rng.normal())))
        f = AnalyticFunction.from_modes(lat, jmax, modes)
        h = invert_via_diagonalization(red, f, 1e-3)
        fv = np.zeros(len(labels), dtype=complex)
        for (l, j), c in f.coeffs.items():
            fv[col[(l, j)]] = c
        hd = np.linalg.solve(dense, -fv)
        hv = np.zeros_like(fv)
        for (l, j), c in h.coeffs.items():
            if j != 0:
                hv[col[(l, j)]] = c
        assert np.max(np.abs(hv - hd)) <= 1e-8 * np.max(np.abs(hd))


def test_compare_reductions(lat2, omega2):
    jmax = 12
    L = fixture_operator(lat2, jmax, omega2)
    red = reduce_operator(L, schedule())
    same = compare_reductions(red, red)
    assert same["omega_inf_sup"] == 0.0
    assert all(v == 0.0 for v in same["p_norm_diffs"])
    delta = 1e-6
    bump = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, delta / 2)])
    Lp = DifferentialOperator(omega2, 1.0, L.B + bump, L.C)
    redp = reduce_operator(Lp, schedule())
    dev = compare_reductions(red, redp)
    assert 0.0 < dev["omega_inf_sup"] <= 100.0 * delta
