import numpy as np
import pytest
import scipy.linalg

from airykam.analytic import AnalyticFunction, dx, dx_inv, om_dphi, pi0_perp
from airykam.errors import SeriesDivergenceError
from airykam.lattice import LatticeParams, MultiIndex, get_enumeration
from airykam.opalg import (
    DifferentialOperator,
    OperatorMatrix,
    ad_power,
    apply_op,
    commutator,
    compose,
    dense_labels,
    dx3_commutator,
    dx_op,
    exp_apply,
    exp_conjugate,
    identity_op,
    lie_series,
    materialize,
    mult_op,
    op_norm,
    phi_derivative,
    restrict,
    smoothing_generator_op,
    split_by_norm,
    to_dense,
    x_symbol_op,
)

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)
E2 = MultiIndex.unit(2)


def cos_x(lat, jmax):
    return AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, 0.5)])


def _compose_loops(A, B, half=True):
    """Loop oracle for compose: the dict loop over MultiIndex block keys, in the
    same (A-major, B-minor) accumulation order.

    With ``half`` a real product sums only the targets l whose index is at most
    that of -l and mirrors them, symmetrizing l = 0; without it every target
    is summed and the constructor averages each with its mirror.
    """
    enum = get_enumeration(A.lattice)
    real = A.real and B.real
    half = half and real
    out = {}
    for la, ba in A.blocks.items():
        for lb, bb in B.blocks.items():
            lo = la + lb
            if lo in enum.index_of and not (half and enum.index_of[lo] > enum.index_of[-lo]):
                acc = out.get(lo)
                prod = ba @ bb
                out[lo] = prod if acc is None else acc + prod
    if half:
        for lo, b in list(out.items()):
            mirror = np.conj(b[::-1, ::-1])
            out[-lo] = 0.5 * (b + mirror) if lo == ZERO else mirror
    return OperatorMatrix(A.lattice, A.jmax, out, real=real)


def _apply_op_loops(R, u):
    """Loop oracle for apply_op: block times coefficient vector, pair by pair."""
    enum = get_enumeration(u.lattice)
    jmax = u.jmax
    nj = 2 * jmax + 1
    groups = {}
    for (l, j), c in u.coeffs.items():
        if j != 0:
            groups.setdefault(l, np.zeros(nj, dtype=complex))[j + jmax] = c
    out = {}
    for ld, b in R.blocks.items():
        for lp, vec in groups.items():
            lo = ld + lp
            if lo in enum.index_of:
                acc = out.setdefault(lo, np.zeros(nj, dtype=complex))
                acc += b @ vec
    coeffs = {(lo, int(k) - jmax): vec[k] for lo, vec in out.items() for k in np.flatnonzero(vec)}
    result = AnalyticFunction(u.lattice, jmax, coeffs, real=R.real and u.real)
    if R.omega is not None:
        result = result + om_dphi(u, R.omega)
    return result


def random_blocks_op(lat, jmax, seed, real, sparse, omega=None):
    """Operator with a random block on every lattice index (sparse: site 1 only)."""
    rng = np.random.default_rng(seed)
    nj = 2 * jmax + 1
    blocks = {
        l: rng.normal(size=(nj, nj)) + 1j * rng.normal(size=(nj, nj))
        for l in get_enumeration(lat).indices
        if not (sparse and l.max_site() > 1)
    }
    return OperatorMatrix(lat, jmax, blocks, omega=omega, real=real)


def rand_op(lat, jmax, seed, amp=0.1, span=1, jband=2, order=0):
    """Random real operator from a differential-style coefficient."""
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(5):
        l = MultiIndex((int(rng.integers(-span, span + 1)), 0))
        m = int(rng.integers(-jband, jband + 1))
        modes.append((l, m, amp * complex(rng.normal(), rng.normal())))
    a = AnalyticFunction.from_modes(lat, jmax, modes)
    out = mult_op(a)
    if order:
        out = compose(out, dx_op(lat, jmax, order))
    return out


# -- norms ---------------------------------------------------------------------


def test_op_norm_examples(lat2, jmax):
    assert op_norm(identity_op(lat2, jmax), 0.8) == pytest.approx(1.0)
    assert op_norm(OperatorMatrix(lat2, jmax), 0.3) == 0.0
    # multiplication by cos x: two side diagonals of one half
    assert op_norm(mult_op(cos_x(lat2, jmax)), 0.0) == pytest.approx(1.0)
    assert op_norm(mult_op(cos_x(lat2, jmax)), 1.0) == pytest.approx(np.e)


def test_op_norm_submultiplicative_m0(lat2, jmax):
    for seed in range(10):
        A = rand_op(lat2, jmax, seed)
        B = rand_op(lat2, jmax, 100 + seed)
        s = 0.3
        assert op_norm(compose(A, B), s) <= op_norm(A, s) * op_norm(B, s) * (1 + 1e-12)


def test_op_norm_order_weight(lat2, jmax):
    D = dx_op(lat2, jmax)
    assert op_norm(D, 0.0, m=1.0) == pytest.approx(1.0)


def test_projection_smoothing_for_operators(lat2, jmax):
    from airykam.lattice import eta_norm

    R = rand_op(lat2, jmax, 7, span=2)
    N, rho, sigma = 1.5, 0.5, 0.2
    high = {l: b for l, b in R.blocks.items() if l and eta_norm(l, 1.0) > N}
    Rhigh = OperatorMatrix(lat2, jmax, high)
    assert op_norm(Rhigh, sigma) <= np.exp(-rho * N) * op_norm(R, sigma + rho) + 1e-14


# -- materialization -----------------------------------------------------------


def test_materialize_diagonal_symbol(lat2, jmax, omega2):
    zero = AnalyticFunction.zeros(lat2, jmax)
    L = DifferentialOperator(omega2, 1.0, zero, zero)
    R = materialize(L)
    # single-mode substitution oracle: L e^{i(l.phi + j x)} = i(omega.l - j^3) e^{...}
    for l, j in ((E1, 2), (E2, -3), (ZERO, 1)):
        e = AnalyticFunction(lat2, jmax, {(l, j): 1.0 + 0j}, real=False)
        out = apply_op(R, e)
        expect = 1j * (float(np.dot(l.dense(2), omega2)) - j**3)
        assert out.get(l, j) == pytest.approx(expect)
        assert len(out.coeffs) == 1


def test_materialize_faithful_to_structured(lat2, jmax, omega2, rand_fct):
    rng = np.random.default_rng(5)
    for seed in range(50):
        amp = 10.0 ** rng.uniform(-3, 0)
        B = AnalyticFunction.from_modes(
            lat2, jmax,
            [(E1, 1, amp * complex(rng.normal(), rng.normal())), (ZERO, 0, 0.3)],
        )
        C = AnalyticFunction.from_modes(
            lat2, jmax, [(E2, 2, amp * complex(rng.normal(), rng.normal()))]
        )
        L = DifferentialOperator(omega2, 1.0 + 0.1 * rng.normal(), B, C)
        u = rand_fct(seed)
        direct = L.apply(u)
        via_matrix = apply_op(materialize(L), u)
        scale = max(direct.norm(0.0), 1.0)
        assert (direct - via_matrix).norm(0.0) <= 1e-14 * scale


def test_materialize_convolution_blocks(lat2, jmax, omega2):
    zero = AnalyticFunction.zeros(lat2, jmax)
    L = DifferentialOperator(omega2, 1.0, zero, cos_x(lat2, jmax))
    R = materialize(L)
    b = R.blocks[ZERO]
    # C = cos x: one-half on the two side diagonals at l = 0
    assert b[3 + jmax, 2 + jmax] == pytest.approx(0.5)
    assert b[1 + jmax, 2 + jmax] == pytest.approx(0.5)


# -- composition and commutators -------------------------------------------------


def test_compose_identity(lat2, jmax):
    R = rand_op(lat2, jmax, 3)
    I = identity_op(lat2, jmax)
    assert op_norm(compose(I, R) - R, 0.0) == 0.0
    assert op_norm(compose(R, I) - R, 0.0) == 0.0


@pytest.mark.parametrize("sparse", [False, True], ids=["full", "site1"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_compose_matches_loop_oracle_bitwise(lat2, jmax, real, sparse):
    A = random_blocks_op(lat2, jmax, 1, real, sparse)
    B = random_blocks_op(lat2, jmax, 2, real, sparse)
    got, want = compose(A, B), _compose_loops(A, B)
    assert got.real == want.real
    assert list(got.blocks) == list(want.blocks)
    for l, b in want.blocks.items():
        assert np.array_equal(got.blocks[l], b)
    # the full-target loop differs from the halved one only by rounding
    full = _compose_loops(A, B, half=False)
    assert list(full.blocks) == list(want.blocks)
    scale = max(np.max(np.abs(b)) for b in full.blocks.values())
    for l, b in full.blocks.items():
        assert np.max(np.abs(got.blocks[l] - b)) <= 1e-14 * scale


def _assert_invariants(R):
    """Stored blocks hold the invariants, so normalizing them again changes nothing."""
    jmax = R.jmax
    neg = get_enumeration(R.lattice).neg
    for p, b in R.data.items():
        assert np.any(b) and not b.flags.writeable
        assert not np.any(b[jmax, :]) and not np.any(b[:, jmax])
        if R.real:
            assert np.array_equal(R.data[int(neg[p])], np.conj(b[::-1, ::-1]))
    again = OperatorMatrix.from_indexed(R.lattice, R.jmax, dict(R.data), omega=R.omega,
                                        real=R.real)
    assert list(again.data) == list(R.data)
    for p, b in again.data.items():
        assert np.array_equal(R.data[p], b)


@pytest.mark.parametrize("sparse", [False, True], ids=["full", "site1"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_closed_results_hold_block_invariants(lat2, jmax, omega2, real, sparse):
    A = random_blocks_op(lat2, jmax, 5, real, sparse)
    B = random_blocks_op(lat2, jmax, 6, True, not sparse)
    results = [A + B, A - B, 0.3 * A, compose(A, B), compose(B, A),
               *split_by_norm(A, 1.5), restrict(A, jmax - 3, 2.0), phi_derivative(A, omega2)]
    assert [R.real for R in results[:4]] == [real] * 4
    for R in results:
        _assert_invariants(R)


def test_stored_blocks_are_read_only(lat2, jmax):
    """Operators share block arrays (A + B reuses B's block where A has none),
    so an in-place write must raise."""
    nj = 2 * jmax + 1
    blk = np.ones((nj, nj), dtype=complex)
    A = OperatorMatrix(lat2, jmax, {E1: blk})
    B = OperatorMatrix(lat2, jmax, {E2: blk})
    total = A + B
    assert total.blocks[E2] is B.blocks[E2]
    assert blk.flags.writeable          # the caller's array was copied
    for b in (A.blocks[E1], total.blocks[E2]):
        with pytest.raises(ValueError):
            b[1, 1] = 0.0


@pytest.mark.parametrize("with_omega", [False, True], ids=["bounded", "omega"])
@pytest.mark.parametrize("sparse", [False, True], ids=["full", "site1"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_apply_op_matches_loop_oracle(lat2, jmax, omega2, rand_fct, real, sparse, with_omega):
    R = random_blocks_op(lat2, jmax, 3, real, sparse, omega=omega2 if with_omega else None)
    u = rand_fct(4, n_modes=12, zero_x_avg=False)
    if not real:
        u = u * (0.3 + 0.7j)
    got, want = apply_op(R, u), _apply_op_loops(R, u)
    assert got.real == want.real
    assert (got - want).norm(0.0) <= 1e-14 * want.norm(0.0)


def test_ad_power_zero_is_identity(lat2, jmax):
    A, B = rand_op(lat2, jmax, 1), rand_op(lat2, jmax, 2)
    assert op_norm(ad_power(A, B, 0) - B, 0.0) == 0.0
    assert op_norm(ad_power(A, B, 1) - commutator(B, A), 0.0) == 0.0


def test_commutator_dx_with_multiplication(lat2, jmax):
    c = cos_x(lat2, jmax)
    got = commutator(dx_op(lat2, jmax), mult_op(c))
    expect = mult_op(dx(c, 1))
    diff = restrict(got - expect, jmax - 1, lat2.K)
    assert op_norm(diff, 0.0) < 1e-14


def test_dx3_commutator_closed_form(lat2, jmax):
    g = dx_inv(cos_x(lat2, jmax))        # sin x
    leading, rem = dx3_commutator(g)
    assert (leading - 3.0 * dx(g, 1)).norm(0.0) == 0.0
    lhs = commutator(dx_op(lat2, jmax, 3), smoothing_generator_op(g))
    rhs = compose(mult_op(leading), dx_op(lat2, jmax)) + rem
    assert op_norm(lhs - rhs, 0.0) < 1e-12


def test_dx3_commutator_single_mode(lat2, jmax):
    g = dx_inv(cos_x(lat2, jmax))
    lhs = commutator(dx_op(lat2, jmax, 3), smoothing_generator_op(g))
    e2 = AnalyticFunction(lat2, jmax, {(ZERO, 2): 1.0 + 0j}, real=False)
    got = apply_op(lhs, e2)
    # [dx^3, pi0perp g dx^{-1}] e^{2ix} with g = sin x, expanded by hand:
    # g dx^{-1} e^{2ix} = sin(x) e^{2ix}/(2i); apply dx^3, subtract g dx^{-1}(dx^3 e^{2ix})
    leading, rem = dx3_commutator(g)
    expect = apply_op(compose(mult_op(leading), dx_op(lat2, jmax)) + rem, e2)
    assert (got - expect).norm(0.0) < 1e-13
    # entry values: modes 1 and 3 only
    assert set(j for (_, j) in got.coeffs) == {1, 3}


# -- exponentials ------------------------------------------------------------------


def test_exp_conjugate_trivial_and_abelian(lat2, jmax):
    B = rand_op(lat2, jmax, 11)
    G0 = OperatorMatrix(lat2, jmax)
    assert op_norm(exp_conjugate(G0, B) - B, 0.0) == 0.0
    # multiplications by functions of phi alone commute exactly, as do
    # Fourier multipliers in x (compressions of x-multiplications do not)
    a = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.4)])
    b = AnalyticFunction.from_modes(lat2, jmax, [(E2, 0, 0.3), (ZERO, 0, 1.2)])
    got = exp_conjugate(mult_op(a), mult_op(b), tol=1e-15)
    assert op_norm(got - mult_op(b), 0.0) < 1e-13
    S1 = x_symbol_op(lat2, jmax, lambda j: 1.0 / (1.0 + j * j))
    S2 = x_symbol_op(lat2, jmax, lambda j: 1j * j)
    assert op_norm(exp_conjugate(S1, S2, tol=1e-15) - S2, 0.0) < 1e-13


def test_exp_conjugate_matches_dense_oracle():
    # phi-independent operators live in the single l = 0 block, a closed
    # 39 x 39 matrix algebra shared exactly with the dense oracle
    lat = LatticeParams(1.0, 1, 2.0)
    jmax = 19
    rng = np.random.default_rng(42)
    def mk(amp):
        modes = [
            (MultiIndex.zero(), int(rng.integers(-3, 4)),
             amp * complex(rng.normal(), rng.normal()))
            for _ in range(4)
        ]
        return mult_op(AnalyticFunction.from_modes(lat, jmax, modes))
    G = mk(0.08)
    B = mk(1.0)
    got = exp_conjugate(G, B, tol=1e-15).blocks[MultiIndex.zero()]
    Gd = G.blocks[MultiIndex.zero()]
    Bd = B.blocks[MultiIndex.zero()]
    assert Gd.shape == (39, 39)
    oracle = scipy.linalg.expm(-Gd) @ Bd @ scipy.linalg.expm(Gd)
    assert np.max(np.abs(got - oracle)) < 1e-10


def test_exp_conjugate_matches_windowed_dense_oracle(lat2, jmax):
    """phi-dependent case: agreement on an interior window, with the series
    short enough that no product path leaves the lattice."""
    rng = np.random.default_rng(9)
    def mk(amp, seed):
        r = np.random.default_rng(seed)
        modes = [
            (MultiIndex((int(r.integers(-1, 2)), 0)), int(r.integers(-2, 3)),
             amp * complex(r.normal(), r.normal()))
            for _ in range(4)
        ]
        return mult_op(AnalyticFunction.from_modes(lat2, jmax, modes))
    del rng
    G, B = mk(0.01, 1), mk(1.0, 2)
    got = exp_conjugate(G, B, tol=1e-15)
    approx = B
    term = B
    for k in range(1, 7):
        term = commutator(term, G) * (1.0 / k)
        approx = approx + term
    win = restrict(got - approx, jmax - 8, lat2.K - 3)
    assert op_norm(win, 0.0) < 1e-12


def test_exp_apply_inverse_and_nilpotent(lat2, jmax, rand_fct):
    g = dx_inv(pi0_perp(rand_fct(13, amp=0.05)))
    G = smoothing_generator_op(g)
    u = pi0_perp(rand_fct(14))
    round_trip = exp_apply(-G, exp_apply(G, u))
    assert (round_trip - u).norm(0.0) <= 1e-12 * u.norm(0.0)
    # one-entry generator acting on a disjoint mode: series is exactly u + Gu
    nj = 2 * jmax + 1
    blk = np.zeros((nj, nj), dtype=complex)
    blk[5 + jmax, 2 + jmax] = 0.7
    N = OperatorMatrix(lat2, jmax, {E1: blk}, real=False)
    e = AnalyticFunction(lat2, jmax, {(ZERO, 2): 1.0 + 0j}, real=False)
    out = exp_apply(N, e)
    expect = e + apply_op(N, e)
    assert (out - expect).norm(0.0) < 1e-15


def test_exp_conjugate_algebra_morphism(lat2, jmax):
    # exact in the un-truncated algebra; the interior window keeps the
    # lattice-boundary associativity defect below the series tolerance
    G = rand_op(lat2, jmax, 21, amp=0.004)
    A = rand_op(lat2, jmax, 22)
    B = rand_op(lat2, jmax, 23)
    lhs = exp_conjugate(G, compose(A, B), tol=1e-15)
    rhs = compose(exp_conjugate(G, A, tol=1e-15), exp_conjugate(G, B, tol=1e-15))
    win = restrict(lhs - rhs, jmax - 4, lat2.K - 2)
    scale = op_norm(A, 0.0) * op_norm(B, 0.0)
    assert op_norm(win, 0.0) <= 1e-11 * scale


def test_exp_conjugate_with_phi_direction(lat2, jmax, omega2):
    """Conjugating omega.d_phi + D picks up the coefficient derivative terms.

    Supports are kept to one site so that no second-order product path exits
    the lattice; agreement is then limited only by the series tolerance.
    """
    zero = AnalyticFunction.zeros(lat2, jmax)
    B = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 2e-3)]) + 0.04
    L = DifferentialOperator(omega2, 1.0, B, zero)
    g = dx_inv(AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 1e-3), (ZERO, 2, 5e-4)]))
    G = smoothing_generator_op(g)
    conj = exp_conjugate(G, materialize(L), tol=1e-15)
    u = AnalyticFunction.from_modes(lat2, jmax, [(E1, 2, 0.8), (ZERO, 3, 0.5)])
    lhs = apply_op(conj, u)
    rhs = exp_apply(-G, apply_op(materialize(L), exp_apply(G, u)))
    delta = (lhs - rhs).norm(0.0)
    assert delta <= 1e-10 * max(1.0, rhs.norm(0.0))


@pytest.mark.parametrize("amp,terms_expected", [(1e3, 14), (1e-3, 12)])
def test_lie_series_stops_at_first_small_term(lat2, jmax, amp, terms_expected):
    """An eigen-direction of Ad_G: [X, G] = c X, so term k has norm
    |X| |c|^k / (k + 1)! and the sum is X sum_k c^k / (k + 1)!.  The series
    stops at the first term below tol * max(1, |X|)."""
    G = x_symbol_op(lat2, jmax, lambda j: 0.5j * j)
    nj = 2 * jmax + 1
    blk = np.zeros((nj, nj), dtype=complex)
    blk[2 + jmax, 1 + jmax] = amp
    X = OperatorMatrix(lat2, jmax, {E1: blk}, real=False)
    c = 0.5j * 1 - 0.5j * 2
    tol = 1e-14
    k, coef, expect = 0, 1.0, 1.0          # coef = c^k / (k + 1)!
    while amp * abs(coef) > tol * max(1.0, amp):
        k += 1
        coef *= c / (k + 1)
        expect += coef
    total, terms = lie_series(G, X, tol=tol)
    assert terms == k + 1 == terms_expected
    got = total.blocks[E1][2 + jmax, 1 + jmax]
    assert abs(got - amp * expect) <= 1e-13 * amp
    assert list(total.blocks) == [E1]


def test_series_divergence_detection(lat2, jmax):
    big = mult_op(AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 40.0)]))
    B = dx_op(lat2, jmax, 1)
    with pytest.raises(SeriesDivergenceError):
        exp_conjugate(big, B, tol=1e-14, max_terms=25)


def test_flow_series_divergence_detection(lat2, jmax):
    big = mult_op(AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 40.0)]))
    u = AnalyticFunction.from_modes(lat2, jmax, [(E1, 2, 1.0)])
    with pytest.raises(SeriesDivergenceError, match="stopped decreasing"):
        exp_apply(big, u, tol=1e-14, max_terms=25)
    with pytest.raises(SeriesDivergenceError, match="did not reach"):
        exp_apply(mult_op(AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 0.1)])), u,
                  tol=1e-14, max_terms=3)


def test_phi_derivative_entries(lat2, jmax, omega2):
    a = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 0.3)])
    R = mult_op(a)
    D = phi_derivative(R, omega2)
    got = D.blocks[E1][2 + jmax, 1 + jmax]
    assert got == pytest.approx(1j * omega2[0] * 0.3)


def test_to_dense_roundtrip_action(lat2, jmax, omega2, rand_fct):
    R = rand_op(lat2, jmax, 51, order=1)
    u = pi0_perp(rand_fct(52))
    labels, _ = dense_labels(lat2, jmax)
    col = {lab: i for i, lab in enumerate(labels)}
    vec = np.zeros(len(labels), dtype=complex)
    for (l, j), c in u.coeffs.items():
        if j != 0:
            vec[col[(l, j)]] = c
    out_vec = to_dense(R) @ vec
    out = apply_op(R, u)
    expect = np.zeros_like(vec)
    for (l, j), c in out.coeffs.items():
        if j != 0:
            expect[col[(l, j)]] = c
    assert np.max(np.abs(out_vec - expect)) < 1e-13
