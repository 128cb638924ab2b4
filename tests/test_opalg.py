import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from airykam import analytic, opalg
from airykam.analytic import AnalyticFunction, dx, dx_inv, om_dphi, pi0_perp
from airykam.errors import SeriesDivergenceError
from airykam.lattice import LatticeParams, MultiIndex, get_enumeration
from airykam.opalg import (
    DifferentialOperator,
    OperatorMatrix,
    apply_op,
    commutator,
    compose,
    dense_labels,
    diag_commutator,
    dx_op,
    exp_apply,
    exp_conjugate,
    lie_series,
    materialize,
    mult_dx_op,
    mult_op,
    op_norm,
    phi_derivative,
    restrict,
    smoothing_generator_op,
    split_by_norm,
    split_diagonal,
    to_dense,
    x_symbol_op,
)

from oracles import by_real_parts, dx3_commutator, lie_series_scaled_after, unit

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)
E2 = MultiIndex.unit(2)


def cos_x(lat, jmax):
    return AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, 0.5)])


def _compose_loops(A, B, half=True, skip=()):
    """Loop oracle for compose: the dict loop over MultiIndex block keys, in the
    same (A-major, B-minor) accumulation order.

    With ``half`` a real product sums only the targets l whose index is at most
    that of -l and mirrors them, symmetrizing l = 0; without it every target
    is summed and the constructor averages each with its mirror.  The block
    pairs (l_a, l_b) in ``skip`` are left out.
    """
    enum = get_enumeration(A.lattice)
    real = A.real and B.real
    half = half and real
    out = {}
    for la, ba in A.blocks.items():
        for lb, bb in B.blocks.items():
            lo = la + lb
            if (la, lb) in skip:
                continue
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
    return AnalyticFunction(u.lattice, jmax, coeffs)


def random_blocks_op(lat, jmax, seed, real, sparse):
    """Operator with a random block on every lattice index (sparse: site 1 only)."""
    rng = np.random.default_rng(seed)
    nj = 2 * jmax + 1
    blocks = {
        l: rng.normal(size=(nj, nj)) + 1j * rng.normal(size=(nj, nj))
        for l in get_enumeration(lat).indices
        if not (sparse and l.max_site() > 1)
    }
    return OperatorMatrix(lat, jmax, blocks, real=real)


def diagonal_op(lat, jmax, seed, real, sparse, max_diagonals=3):
    """Operator whose blocks each hold 1 to max_diagonals random nonzero diagonals
    (sparse: site 1 only), like a multiplication by a function with few x-modes.

    A real operator gets its blocks at -l as mirrors of those at l, so they keep
    their diagonals; its l = 0 block is a mirror-symmetric main diagonal."""
    rng = np.random.default_rng(seed)
    enum = get_enumeration(lat)
    nj = 2 * jmax + 1
    blocks = {}
    for p, l in enumerate(enum.indices):
        neg = int(enum.neg[p])
        if (sparse and l.max_site() > 1) or (real and p > neg):
            continue
        if real and p == neg:
            offsets = [0]
        else:
            offsets = rng.choice(np.arange(-jmax, jmax + 1), rng.integers(1, max_diagonals + 1),
                                 replace=False)
        b = sum(np.diag(rng.normal(size=nj - abs(o)) + 1j * rng.normal(size=nj - abs(o)), o)
                for o in offsets)
        blocks[p] = b
        if real:
            blocks[neg] = np.conj(b[::-1, ::-1])
    return OperatorMatrix.from_indexed(lat, jmax, blocks, real=real)


@pytest.fixture
def join_calls(monkeypatch):
    """Counts the calls of compose's join kernel."""
    calls = []
    kernel = opalg.join_into

    def counted(*args):
        calls.append(args)
        kernel(*args)

    monkeypatch.setattr(opalg, "join_into", counted)
    return calls


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
    eye = OperatorMatrix.from_indexed(lat2, jmax, {0: np.eye(2 * jmax + 1, dtype=complex)})
    assert op_norm(eye, 0.8) == pytest.approx(1.0)
    assert op_norm(OperatorMatrix(lat2, jmax), 0.3) == 0.0
    # multiplication by cos x: two side diagonals of one half
    assert op_norm(mult_op(cos_x(lat2, jmax)), 0.0) == pytest.approx(1.0)
    assert op_norm(mult_op(cos_x(lat2, jmax)), 1.0) == pytest.approx(np.e)
    # at sigma = 0, the sum over the blocks of their largest column sums
    R = random_blocks_op(lat2, jmax, 7, True, False)
    assert op_norm(R, 0.0) == sum(np.abs(b).sum(axis=0).max() for b in R.blocks.values())


def test_op_norm_submultiplicative_m0(lat2, jmax):
    for seed in range(10):
        A = rand_op(lat2, jmax, seed)
        B = rand_op(lat2, jmax, 100 + seed)
        s = 0.3
        assert op_norm(compose(A, B), s) <= op_norm(A, s) * op_norm(B, s) * (1 + 1e-12)


def test_op_norm_order_weight(lat2, jmax):
    """The norm of dx^k, a diagonal multiplier (i j)^k, is its largest entry jmax^k."""
    for order in (1, 3):
        assert op_norm(dx_op(lat2, jmax, order), 0.0) == pytest.approx(float(jmax) ** order)


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
    # single-mode substitution oracle: dx^3 e^{i(l.phi + j x)} = -i j^3 e^{...}; omega.d_phi
    # is not part of the materialized operator
    index_of = get_enumeration(lat2).index_of
    for l, j in ((E1, 2), (E2, -3), (ZERO, 1)):
        e = unit(lat2, jmax, index_of[l], j)
        out = by_real_parts(lambda v: apply_op(R, v), lat2, jmax, e)
        expect = -1j * j**3
        assert out[index_of[l], j + jmax] == pytest.approx(expect)
        assert np.count_nonzero(out) == 1


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
        via_matrix = apply_op(materialize(L), u) + om_dphi(u, L.omega)
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
    I = OperatorMatrix.from_indexed(lat2, jmax, {0: np.eye(2 * jmax + 1, dtype=complex)})
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


@pytest.mark.parametrize("sparse", [False, True], ids=["full", "site1"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_join_path_matches_loop_oracle(lat2, jmax, real, sparse, monkeypatch, join_calls):
    """Blocks with 1-3 nonzero diagonals, every product forced through the join."""
    monkeypatch.setattr(opalg, "JOIN_COST", 0.0)
    for seed in range(3):
        A = diagonal_op(lat2, jmax, 2 * seed, real, sparse)
        B = diagonal_op(lat2, jmax, 2 * seed + 1, real, sparse)
        got, want = compose(A, B), _compose_loops(A, B)
        assert got.real == want.real
        assert list(got.blocks) == list(want.blocks)
        scale = max(np.max(np.abs(b)) for b in want.blocks.values())
        for l, b in want.blocks.items():
            assert np.max(np.abs(got.blocks[l] - b)) <= 1e-15 * scale
        _assert_invariants(got)
    assert len(join_calls) == 3


SPARSE_LAT = LatticeParams(1.0, 2, 12.0)     # the reduce_sparse truncation, with jmax = 32


def test_compose_path_follows_the_nonzeros(join_calls):
    """A pair of single-diagonal operators takes the join, a pair of dense ones the GEMM loop."""
    single = [diagonal_op(SPARSE_LAT, 32, seed, True, True, max_diagonals=1) for seed in (1, 2)]
    compose(*single)
    assert len(join_calls) == 1
    dense = [random_blocks_op(SPARSE_LAT, 32, seed, True, True) for seed in (1, 2)]
    compose(*dense)
    assert len(join_calls) == 1


@pytest.mark.parametrize("make, joins", [(diagonal_op, 1), (random_blocks_op, 0)],
                         ids=["join", "gemm"])
def test_cached_operand_matches_a_fresh_copy(make, joins, join_calls):
    """compose keeps each operand's nonzero counts (and, on the join, its entry
    lists); a second product of the same operands takes the same path and gives
    bitwise the same blocks as a product of fresh copies, which compute them anew."""
    A, B = (make(SPARSE_LAT, 32, seed, True, True) for seed in (3, 4))
    first = compose(A, B)
    assert len(join_calls) == joins
    assert A._counts is not None and (A._entry_lists is not None) == bool(joins)
    cached = compose(A, B)
    fresh = compose(A._like(dict(A.data)), B._like(dict(B.data)))
    assert len(join_calls) == 3 * joins
    for got in (cached, fresh):
        assert list(got.data) == list(first.data)
        assert all(np.array_equal(got.data[p], b) for p, b in first.data.items())


@pytest.mark.parametrize("make", [diagonal_op, random_blocks_op], ids=["diagonal", "dense"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_nonzero_counts_match_per_block_counts(make, real):
    R = make(SPARSE_LAT, 32, 5, real, True)
    cols, rows = R.nonzero_counts()
    assert cols.dtype == rows.dtype == float
    assert cols.shape == rows.shape == (len(R.data), R.nj)
    for k, b in enumerate(R.data.values()):
        assert np.array_equal(cols[k], np.count_nonzero(b, axis=0))
        assert np.array_equal(rows[k], np.count_nonzero(b, axis=1))
    empty = OperatorMatrix(SPARSE_LAT, 32, {}, real=real)
    assert all(c.shape == (0, empty.nj) for c in empty.nonzero_counts())


@pytest.mark.parametrize("join_cost", [opalg.JOIN_COST, 0.0], ids=["rule", "free-join"])
def test_compose_with_every_target_outside_returns_no_blocks(lat2, jmax, monkeypatch,
                                                              join_calls, join_cost):
    """With no target-valid block pair (P = 0) not even a free join runs."""
    monkeypatch.setattr(opalg, "JOIN_COST", join_cost)
    nj = 2 * jmax + 1
    far = MultiIndex.unit(1, int(lat2.K))           # |l|_eta = K: 2 l leaves the lattice
    A = OperatorMatrix(lat2, jmax, {far: np.eye(nj, dtype=complex)}, real=False)
    assert not compose(A, A).data
    assert not join_calls


def test_join_temporaries_are_bounded(monkeypatch):
    """Operators with 1-3 diagonals in each block of the full M=2, K=12, jmax=32
    lattice: 3.5M pairs, about 54 chunks, which at some 50 bytes a pair would
    take 175 MB at once.  The kernel's temporaries stay below 6 MB."""
    A, B = (diagonal_op(SPARSE_LAT, 32, seed, True, False) for seed in (3, 4))
    peaks = []
    kernel = opalg.join_into

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kernel(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(opalg, "join_into", traced)
    tracemalloc.start()
    try:
        compose(A, B)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 6e6


def decaying_op(make, lat, jmax, seed, real, sparse):
    """make's operator with its block at l scaled by 10^{-2 |l|_eta}, so that the
    pair bounds |A_a| |B_b| spread over many decades, as in a KAM remainder."""
    R = make(lat, jmax, seed, real, sparse)
    norms = get_enumeration(lat).eta_norms
    return R._like({p: 10.0 ** (-2.0 * norms[p]) * b for p, b in R.data.items()})


def _dropped_pairs(A, B, budget):
    """The pairs (l_a, l_b) that compose leaves out at this budget, by the rule
    written out: the target-valid pairs in A-major, B-minor order, sorted
    stably by |A_a| |B_b| (column-sum norms), go smallest first while their
    running sum, doubled in a real product, stays within the budget.  Also
    returns the number of target-valid pairs."""
    enum = get_enumeration(A.lattice)
    real = A.real and B.real
    norm = lambda b: np.abs(b).sum(axis=0).max()
    pairs = [(norm(ba) * norm(bb), la, lb)
             for la, ba in A.blocks.items() for lb, bb in B.blocks.items()
             if la + lb in enum.index_of
             and not (real and enum.index_of[la + lb] > enum.index_of[-(la + lb)])]
    dropped, spent = set(), 0.0
    for bound, la, lb in sorted(pairs, key=lambda t: t[0]):
        spent += bound
        if (2.0 * spent if real else spent) > budget:
            break
        dropped.add((la, lb))
    return dropped, len(pairs)


@pytest.mark.parametrize("path", ["gemm", "join"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_compose_drops_the_smallest_bound_prefix(lat2, jmax, real, path, monkeypatch,
                                                 join_calls):
    """With a forced budget, compose equals the loop oracle summed without exactly
    the smallest-bound prefix of the pairs (bitwise on the GEMM path), and it
    differs from the full product by at most the budget in op_norm."""
    make = random_blocks_op if path == "gemm" else diagonal_op
    if path == "join":
        monkeypatch.setattr(opalg, "JOIN_COST", 0.0)
    A = decaying_op(make, lat2, jmax, 11, real, False)
    B = decaying_op(make, lat2, jmax, 12, real, False)
    scale = op_norm(A, 0.0) * op_norm(B, 0.0)
    full = _compose_loops(A, B)
    for rel in (1e-12, 1e-6, 1e-2):
        budget = rel * scale
        dropped, valid = _dropped_pairs(A, B, budget)
        assert 0 < len(dropped) < valid
        got, want = compose(A, B, budget), _compose_loops(A, B, skip=dropped)
        assert got.real == want.real
        assert list(got.blocks) == list(want.blocks)
        top = max(np.max(np.abs(b)) for b in want.blocks.values())
        for l, b in want.blocks.items():
            if path == "gemm":
                assert np.array_equal(got.blocks[l], b)
            else:
                assert np.max(np.abs(got.blocks[l] - b)) <= 1e-15 * top
        assert op_norm(got - full, 0.0) <= budget + 1e-14 * scale
    assert len(join_calls) == (3 if path == "join" else 0)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_commutator_splits_its_budget(lat2, jmax, real):
    """[A, B] with a budget is A B - B A, each product pruned at half of it."""
    A = decaying_op(random_blocks_op, lat2, jmax, 15, real, False)
    B = decaying_op(random_blocks_op, lat2, jmax, 16, real, False)
    budget = 1e-6 * op_norm(A, 0.0) * op_norm(B, 0.0)
    got = commutator(A, B, budget)
    want = (_compose_loops(A, B, skip=_dropped_pairs(A, B, budget / 2)[0])
            - _compose_loops(B, A, skip=_dropped_pairs(B, A, budget / 2)[0]))
    assert list(got.blocks) == list(want.blocks)
    assert all(np.array_equal(got.blocks[l], b) for l, b in want.blocks.items())


@pytest.mark.parametrize("budget", [None, 1e-6], ids=["default", "pruned"])
@pytest.mark.parametrize("b_real", [True, False], ids=["real-real", "real-complex"])
@pytest.mark.parametrize("path", ["gemm", "join"])
def test_commutator_is_the_difference_of_its_products(lat2, jmax, monkeypatch, join_calls,
                                                      path, b_real, budget):
    """commutator takes A B - B A on the products' canonical halves and mirrors
    the difference once; it equals compose(A, B, budget/2) - compose(B, A,
    budget/2) block for block.  The canonical blocks agree bit for bit; a
    mirror block may differ only in the sign of a zero entry, as conj(C - D)
    and conj(C) - conj(D) give -0 and +0 where C and D have equal imaginary
    parts."""
    make = random_blocks_op if path == "gemm" else diagonal_op
    if path == "join":
        monkeypatch.setattr(opalg, "JOIN_COST", 0.0)
    A = decaying_op(make, lat2, jmax, 31, True, False)
    B = decaying_op(make, lat2, jmax, 32, b_real, False)
    if budget is not None:
        budget *= op_norm(A, 0.0) * op_norm(B, 0.0)
        assert _dropped_pairs(A, B, budget / 2)[0] and _dropped_pairs(B, A, budget / 2)[0]
    half = None if budget is None else budget / 2
    got = commutator(A, B, budget)
    want = compose(A, B, half) - compose(B, A, half)
    assert got.real == want.real == b_real
    assert list(got.data) == list(want.data)
    canonical = get_enumeration(lat2).half
    for p, b in want.data.items():
        assert np.array_equal(got.data[p], b)
        if canonical[p] or not b_real:
            assert got.data[p].tobytes() == b.tobytes()
    assert bool(join_calls) == (path == "join")


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_algebra_stores_no_zero_block(lat2, jmax, real):
    """Sums, differences, commutators, products, scalings and restrictions whose
    blocks cancel keep none of them: [A, A], A - A, A + (-A), 0 A and a
    restriction to |j| <= 0 store no block, and partly cancelling sums keep
    exactly the blocks that do not cancel."""
    A = random_blocks_op(lat2, jmax, 41, real, False)
    B = random_blocks_op(lat2, jmax, 42, real, True)
    for R in (commutator(A, A), A - A, A + (-A), 0.0 * A, restrict(A, 0, lat2.K)):
        assert not R.data
    low, high = split_by_norm(A, 2.0)
    assert low.data and high.data
    for R in (A - low, A + (-1.0) * low):
        assert list(R.data) == list(high.data)
        assert all(R.data[p] is b for p, b in high.data.items())
    # the blocks of B cancel, those of A_high only round
    for R in ((A + B) - (low + B), (B + high) - B):
        assert list(R.data) == list(high.data)
    partly = (B + high) - B
    for R in (A - low, partly, commutator(A, B), compose(A, B)):
        assert all(b.any() for b in R.data.values())
    # diagonal blocks on j > 0 times blocks on j < 0: every target block is zero
    nj = 2 * jmax + 1
    up, down = (np.diag((np.arange(nj) > jmax) * 1.0), np.diag((np.arange(nj) < jmax) * 1.0))
    P = OperatorMatrix(lat2, jmax, {E1: up + 0j, ZERO: up + 0j}, real=False)
    Q = OperatorMatrix(lat2, jmax, {E1: down + 0j, ZERO: down + 0j}, real=False)
    assert P.data and Q.data and not compose(P, Q).data


def test_compose_default_budget_is_prune_rel(lat2, jmax, monkeypatch):
    """Without a budget compose drops what analytic.PRUNE_REL |A| |B| allows, and
    with PRUNE_REL = 0 nothing."""
    A = decaying_op(random_blocks_op, lat2, jmax, 13, True, False)
    B = decaying_op(random_blocks_op, lat2, jmax, 14, True, False)
    budget = analytic.PRUNE_REL * op_norm(A, 0.0) * op_norm(B, 0.0)
    dropped, _ = _dropped_pairs(A, B, budget)
    assert dropped
    for skip in (dropped, ()):
        got, want = compose(A, B), _compose_loops(A, B, skip=skip)
        assert list(got.blocks) == list(want.blocks)
        assert all(np.array_equal(got.blocks[l], b) for l, b in want.blocks.items())
        monkeypatch.setattr(analytic, "PRUNE_REL", 0.0)


@pytest.mark.parametrize("start_factor", [0, 1, 2])
def test_lie_series_pruning_stays_within_its_tolerance(lat2, jmax, monkeypatch, start_factor):
    """Commutator k of a Lie series gets the budget series_budget(term_0)
    (k + start_factor), and the pruned sum agrees with the series that drops
    nothing within SERIES_TOL max(1, |X|)."""
    G = decaying_op(random_blocks_op, lat2, jmax, 21, True, False)
    G = G * (0.3 / op_norm(G, 0.0))
    X = decaying_op(random_blocks_op, lat2, jmax, 22, True, False)
    X = X * (10.0 / op_norm(X, 0.0))
    budgets, dropped = [], []
    commutator_, pruned = opalg.commutator, opalg._pruned

    def recorded(A, B, budget=None, scale=None):
        budgets.append(budget)
        return commutator_(A, B, budget, scale)

    def counted(targets, *args):
        out = pruned(targets, *args)
        dropped.append(np.count_nonzero(out < 0) - np.count_nonzero(targets < 0))
        return out

    monkeypatch.setattr(opalg, "commutator", recorded)
    monkeypatch.setattr(opalg, "_pruned", counted)
    total, terms = lie_series(G, X, start_factor)
    first = X * (1.0 / math.factorial(start_factor))
    share = opalg.SERIES_TOL * max(1.0, op_norm(first, 0.0)) / opalg.MAX_SERIES_TERMS
    assert budgets == [share * (k + start_factor) for k in range(1, terms)]
    assert sum(dropped) > 0
    dropped.clear()
    monkeypatch.setattr(opalg, "series_budget", lambda R: 0.0)
    exact, _ = lie_series(G, X, start_factor)
    assert sum(dropped) == 0
    assert op_norm(total - exact, 0.0) <= opalg.SERIES_TOL * max(1.0, op_norm(X, 0.0))


@pytest.mark.parametrize("start_factor", [0, 1, 2])
def test_lie_series_scales_each_commutator_in_place(lat2, jmax, start_factor):
    """lie_series scales each commutator's difference blocks in place before
    they are mirrored; a second scaling pass commutator(term, G, b) * (1 / (k + s))
    (``oracles.lie_series_scaled_after``) gives the same terms and sum.  The
    canonical blocks agree bit for bit, and every block as numbers: a mirror
    block may differ only in the sign of a zero entry, since conj(s b) and
    s conj(b) give -0 and +0 where b is zero."""
    G = decaying_op(random_blocks_op, lat2, jmax, 21, True, False)
    G = G * (0.3 / op_norm(G, 0.0))
    X = decaying_op(random_blocks_op, lat2, jmax, 22, True, False)
    got, terms = lie_series(G, X, start_factor)
    want, want_terms = lie_series_scaled_after(G, X, start_factor)
    assert terms == want_terms > 3
    assert list(got.data) == list(want.data)
    canonical = get_enumeration(lat2).half
    for p, b in want.data.items():
        assert np.array_equal(got.data[p], b)
        if canonical[p]:
            assert got.data[p].tobytes() == b.tobytes()


def _odd_symbols(jmax):
    """d = i Omega(j) with Omega(j) = -j^3 + 0.05 j + r(j), r odd, and the
    dispersion d = -i lambda3 j^3; both have d(-j) = conj(d(j))."""
    j = np.arange(-jmax, jmax + 1)
    r = np.random.default_rng(7).normal(scale=1e-3, size=j.size)
    omega = -j**3.0 + 0.05 * j + 0.5 * (r - r[::-1])
    return {"omega": 1j * omega, "dispersion": -1j * 1.3 * j**3}


@pytest.mark.parametrize("symbol", ["omega", "dispersion"])
def test_diag_commutator_matches_the_product_commutator(lat2, jmax, symbol):
    """[diag(d), G] scaled entrywise equals the commutator of the products that
    drop nothing, to rounding: within 2 eps max|d| |G| in op_norm(., 0)
    (0.25-0.28 eps max|d| |G| here).
    Each of its blocks at -l is the mirror of its block at l, exactly."""
    d = _odd_symbols(jmax)[symbol]
    G = random_blocks_op(lat2, jmax, 61, True, False)
    got = diag_commutator(d, G)
    want = commutator(x_symbol_op(lat2, jmax, lambda j: d[j + jmax]), G, 0.0)
    assert got.real and list(got.data) == list(want.data)
    scale = np.max(np.abs(d)) * op_norm(G, 0.0)
    assert op_norm(got - want, 0.0) <= 2 * np.finfo(float).eps * scale
    neg = get_enumeration(lat2).neg
    for p, b in got.data.items():
        assert np.array_equal(got.data[neg[p]], opalg._mirror(b))
    _assert_invariants(got)


def test_split_diagonal_takes_the_l0_diagonal(lat2, jmax):
    """split_diagonal returns the diagonal of the l = 0 block and the rest,
    which keeps every other entry; an operator without that block splits
    into zero and itself."""
    A = random_blocks_op(lat2, jmax, 62, True, False)
    d, rest = split_diagonal(A)
    assert np.array_equal(d, np.diag(A.data[0]))
    assert not np.diag(rest.data[0]).any()
    assert op_norm(rest + x_symbol_op(lat2, jmax, lambda j: d[j + jmax]) - A, 0.0) == 0.0
    high = split_by_norm(A, 0.5)[1]
    d, rest = split_diagonal(high)
    assert not d.any() and rest is high


def test_mult_dx_op_matches_the_composed_product(lat2, jmax, rand_fct):
    """a dx built as Toeplitz blocks with column factor i j' equals
    compose(mult_op(a), dx_op(...)) to rounding, within 2 eps |a dx| in
    op_norm(., 0) (here they agree exactly), and neither it nor the smoothing generator, whose column
    divisor skips j' = 0, raises a floating-point warning."""
    a = rand_fct(63, n_modes=8, zero_x_avg=False) + 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mult_dx_op(a)
        smoothing_generator_op(a)
    want = compose(mult_op(a), dx_op(lat2, jmax))
    assert got.real and list(got.data) == list(want.data)
    assert op_norm(got - want, 0.0) <= 2 * np.finfo(float).eps * op_norm(want, 0.0)
    _assert_invariants(got)


def _assert_invariants(R):
    """Stored blocks hold the invariants, so normalizing them again changes nothing."""
    jmax = R.jmax
    neg = get_enumeration(R.lattice).neg
    for p, b in R.data.items():
        assert np.any(b) and not b.flags.writeable
        assert not np.any(b[jmax, :]) and not np.any(b[:, jmax])
        if R.real:
            assert np.array_equal(R.data[int(neg[p])], np.conj(b[::-1, ::-1]))
    again = OperatorMatrix.from_indexed(R.lattice, R.jmax, dict(R.data), real=R.real)
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


@pytest.mark.parametrize("sparse", [False, True], ids=["full", "site1"])
def test_apply_op_matches_loop_oracle(lat2, jmax, rand_fct, sparse):
    R = random_blocks_op(lat2, jmax, 3, True, sparse)
    u = rand_fct(4, n_modes=12, zero_x_avg=False)
    got, want = apply_op(R, u), _apply_op_loops(R, u)
    assert (got - want).norm(0.0) <= 1e-14 * want.norm(0.0)


def test_apply_op_refuses_a_non_real_operator(lat2, jmax, rand_fct):
    """A function is real-on-real, so only a real operator maps it to one."""
    R = random_blocks_op(lat2, jmax, 3, False, True)
    with pytest.raises(ValueError, match="non-real operator"):
        apply_op(R, rand_fct(4))
    with pytest.raises(ValueError, match="non-real operator"):
        exp_apply(R, rand_fct(4))


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
    e2 = unit(lat2, jmax, 0, 2)
    got = by_real_parts(lambda v: apply_op(lhs, v), lat2, jmax, e2)
    # [dx^3, pi0perp g dx^{-1}] e^{2ix} with g = sin x, expanded by hand:
    # g dx^{-1} e^{2ix} = sin(x) e^{2ix}/(2i); apply dx^3, subtract g dx^{-1}(dx^3 e^{2ix})
    leading, rem = dx3_commutator(g)
    rhs = compose(mult_op(leading), dx_op(lat2, jmax)) + rem
    expect = by_real_parts(lambda v: apply_op(rhs, v), lat2, jmax, e2)
    assert np.abs(got - expect).sum() < 1e-13
    # entry values: modes 1 and 3 only
    assert set((np.nonzero(got)[1] - jmax).tolist()) == {1, 3}


# -- exponentials ------------------------------------------------------------------


def test_exp_conjugate_trivial_and_abelian(lat2, jmax):
    B = rand_op(lat2, jmax, 11)
    G0 = OperatorMatrix(lat2, jmax)
    assert op_norm(exp_conjugate(G0, B) - B, 0.0) == 0.0
    # multiplications by functions of phi alone commute exactly, as do
    # Fourier multipliers in x (compressions of x-multiplications do not)
    a = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.4)])
    b = AnalyticFunction.from_modes(lat2, jmax, [(E2, 0, 0.3), (ZERO, 0, 1.2)])
    got = exp_conjugate(mult_op(a), mult_op(b))
    assert op_norm(got - mult_op(b), 0.0) < 1e-13
    S1 = x_symbol_op(lat2, jmax, lambda j: 1.0 / (1.0 + j * j))
    S2 = x_symbol_op(lat2, jmax, lambda j: 1j * j)
    assert op_norm(exp_conjugate(S1, S2) - S2, 0.0) < 1e-13


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
    got = exp_conjugate(G, B).blocks[MultiIndex.zero()]
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
    got = exp_conjugate(G, B)
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
    N = OperatorMatrix(lat2, jmax, {E1: blk})      # and its mirror at -E1
    e = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 2, 1.0)])
    out = exp_apply(N, e)
    expect = e + apply_op(N, e)
    assert (out - expect).norm(0.0) < 1e-15


def test_exp_conjugate_algebra_morphism(lat2, jmax):
    # exact in the un-truncated algebra; the interior window keeps the
    # lattice-boundary associativity defect below the series tolerance
    G = rand_op(lat2, jmax, 21, amp=0.004)
    A = rand_op(lat2, jmax, 22)
    B = rand_op(lat2, jmax, 23)
    lhs = exp_conjugate(G, compose(A, B))
    rhs = compose(exp_conjugate(G, A), exp_conjugate(G, B))
    win = restrict(lhs - rhs, jmax - 4, lat2.K - 2)
    scale = op_norm(A, 0.0) * op_norm(B, 0.0)
    assert op_norm(win, 0.0) <= 1e-11 * scale


def test_exp_conjugate_with_phi_direction(lat2, jmax, omega2):
    """Conjugating omega.d_phi + D picks up the coefficient derivative terms.

    The conjugate of L is omega.d_phi plus the bounded operator
    exp_conjugate(G, materialize(L)) + lie_series(G, phi_derivative(G)), the
    formula of reduce_operator's verify window; it must match the sandwich
    e^{-G} L e^{G} applied through exp_apply.  Supports are kept to one site
    so that no second-order product path exits the lattice; agreement is then
    limited only by the series tolerance.
    """
    zero = AnalyticFunction.zeros(lat2, jmax)
    B = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 2e-3)]) + 0.04
    L = DifferentialOperator(omega2, 1.0, B, zero)
    g = dx_inv(AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 1e-3), (ZERO, 2, 5e-4)]))
    G = smoothing_generator_op(g)
    R = materialize(L)
    conj = (exp_conjugate(G, R)
            + lie_series(G, phi_derivative(G, omega2))[0])
    u = AnalyticFunction.from_modes(lat2, jmax, [(E1, 2, 0.8), (ZERO, 3, 0.5)])
    lhs = apply_op(conj, u) + om_dphi(u, omega2)
    w = exp_apply(G, u)
    rhs = exp_apply(-G, apply_op(R, w) + om_dphi(w, omega2))
    delta = (lhs - rhs).norm(0.0)
    assert delta <= 1e-10 * max(1.0, rhs.norm(0.0))


@pytest.mark.parametrize("amp,terms_expected", [(1e3, 14), (1e-3, 12)])
def test_lie_series_stops_at_first_small_term(lat2, jmax, amp, terms_expected, monkeypatch):
    """An eigen-direction of Ad_G: [X, G] = c X, so term k has norm
    |X| |c|^k / (k + 1)! and the sum is X sum_k c^k / (k + 1)!.  The series
    stops at the first term below SERIES_TOL * max(1, |X|)."""
    G = x_symbol_op(lat2, jmax, lambda j: 0.5j * j)
    nj = 2 * jmax + 1
    blk = np.zeros((nj, nj), dtype=complex)
    blk[2 + jmax, 1 + jmax] = amp
    X = OperatorMatrix(lat2, jmax, {E1: blk}, real=False)
    c = 0.5j * 1 - 0.5j * 2
    tol = 1e-14
    monkeypatch.setattr(opalg, "SERIES_TOL", tol)
    k, coef, expect = 0, 1.0, 1.0          # coef = c^k / (k + 1)!
    while amp * abs(coef) > tol * max(1.0, amp):
        k += 1
        coef *= c / (k + 1)
        expect += coef
    total, terms = lie_series(G, X)
    assert terms == k + 1 == terms_expected
    got = total.blocks[E1][2 + jmax, 1 + jmax]
    assert abs(got - amp * expect) <= 1e-13 * amp
    assert list(total.blocks) == [E1]


def test_series_divergence_detection(lat2, jmax, monkeypatch):
    monkeypatch.setattr(opalg, "SERIES_TOL", 1e-14)
    monkeypatch.setattr(opalg, "MAX_SERIES_TERMS", 25)
    big = mult_op(AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 40.0)]))
    B = dx_op(lat2, jmax, 1)
    with pytest.raises(SeriesDivergenceError):
        exp_conjugate(big, B)


def test_flow_series_divergence_detection(lat2, jmax, monkeypatch):
    monkeypatch.setattr(opalg, "SERIES_TOL", 1e-14)
    monkeypatch.setattr(opalg, "MAX_SERIES_TERMS", 25)
    big = mult_op(AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 40.0)]))
    u = AnalyticFunction.from_modes(lat2, jmax, [(E1, 2, 1.0)])
    with pytest.raises(SeriesDivergenceError, match="stopped decreasing"):
        exp_apply(big, u)
    monkeypatch.setattr(opalg, "MAX_SERIES_TERMS", 3)
    with pytest.raises(SeriesDivergenceError, match="did not reach"):
        exp_apply(mult_op(AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 0.1)])), u)


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
