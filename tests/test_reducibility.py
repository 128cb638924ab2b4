import numpy as np
import pytest

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
    compare_reductions,
    invert_via_diagonalization,
    kam_iterate,
    kam_state_init,
    kam_step,
    order_one_reduction,
    reduce_operator,
)
from oracles import dense_operator

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
    conj = (exp_conjugate(res.G, materialize(L), tol=1e-15)
            + lie_series(res.G, phi_derivative(res.G, omega2), tol=1e-15)[0])
    lam1 = L.lambda1()
    target = x_symbol_op(lat2, jmax, lambda j: 1j * (-j**3 + lam1 * j)) + res.R0
    window = restrict(conj - target, jmax - 3, lat2.K - 1.0)
    assert op_norm(window, 0.0) < 1e-9


def _three_series_R0(L, res, tol=1e-15):
    """Reference R0: separate Lie series for the omega.d_phi, dx^3 and P conjugations."""
    lat, jmax = L.lattice, L.jmax
    g, G = res.g, res.G
    P = compose(mult_op(L.B), dx_op(lat, jmax)) + mult_op(L.C)
    piece1, _ = lie_series(G, smoothing_generator_op(om_dphi(g, L.omega)), tol=tol)
    s3, _ = lie_series(G, commutator(dx_op(lat, jmax, 3), G), tol=tol)
    piece2 = L.lambda3 * (s3 - compose(mult_op(3.0 * dx(g, 1)), dx_op(lat, jmax)))
    piece3 = exp_conjugate(G, P, tol=tol) - P
    return piece1 + piece2 + piece3 + mult_op(L.C)


def _two_series_P(state, new, tol):
    """Reference P_{k+1} = P_high + dust + tail1 + tail2 for the step state -> new."""
    lat, jmax = state.P.lattice, state.jmax
    P_low, P_high = split_by_norm(state.P, state.N)
    Psi = new.psis[-1]
    Z = OperatorMatrix.from_indexed(lat, jmax, {0: np.diag(1j * (new.r - state.r))})
    zdiag = np.diag(state.P.data[0]) if 0 in state.P.data else np.zeros(2 * jmax + 1)
    dust = OperatorMatrix.from_indexed(lat, jmax, {0: np.diag(zdiag)}) - Z
    tail1, _ = lie_series(Psi, commutator(Z + dust - P_low, Psi), tol=tol, start_factor=2)
    tail2 = exp_conjugate(Psi, state.P, tol=tol) - state.P
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
    state = kam_state_init(1.0, L.lambda1(), res.R0, sched.N0)
    for _ in range(3):
        new = kam_step(state, omega2, sched)
        assert new.psis[-1].data
        ref = _two_series_P(state, new, sched.series_tol)
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
    st = kam_state_init(1.0, 0.0, P0, 8.0)
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
    st = kam_state_init(1.0, 0.0, P0, 8.0)
    out = kam_step(st, omega2, schedule())
    assert op_norm(out.P, 0.0) < 1e-18
    assert np.max(np.abs(out.r)) == 0.0
    # the generator entry is the divided coefficient
    psi = out.psis[0].blocks[E1][3 + jmax, 1 + jmax]
    divisor = 1j * (omega2[0] + (-(3.0**3) ) - (-(1.0**3)))
    assert psi == pytest.approx(P0.blocks[E1][3 + jmax, 1 + jmax] / -divisor)


def test_kam_step_diagonal_absorbed(lat2, jmax, omega2):
    nj = 2 * jmax + 1
    z = np.zeros(nj)
    for j in range(1, jmax + 1):
        z[j + jmax] = 1e-3 / j
        z[-j + jmax] = -1e-3 / j
    P0 = OperatorMatrix(lat2, jmax, {ZERO: np.diag(1j * z)}, real=True)
    st = kam_state_init(1.0, 0.0, P0, 8.0)
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
    st = kam_state_init(1.0, 0.0, P0, 8.0)
    with pytest.raises(SmallDivisorError):
        kam_step(st, resonant, schedule())


def test_kam_quadratic_decay(lat2, omega2):
    jmax = 12
    L = fixture_operator(lat2, jmax, omega2)
    oor = order_one_reduction(1.0, L.B, L.C, omega2)
    st = kam_state_init(1.0, 0.05, oor.R0, 8.0)
    result = kam_iterate(st, omega2, schedule())
    assert result.converged
    norms = [row["p_norm"] for row in result.trace]
    norms.append(op_norm(result.state.P, 0.0))
    logs = np.log(norms)
    diffs = np.diff(logs)
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))  # concave decay


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
    assert red.apply_M(u).conjugate_symmetry_residual() == 0.0


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
