"""Linear operators on the truncated Fourier basis.

An operator is stored as block coefficients R(l)[j, j'] acting by
(Ru)_j(l) = sum R(l - l')[j, j'] u_{j'}(l'), i.e. it is a convolution in the
phi-frequencies, so every OperatorMatrix is bounded.  The unbounded term
omega.d_phi cannot be written in that form: it lives only in
``DifferentialOperator``, and a conjugation adds its contribution as the Lie
series of the generator's phi-derivative (see ``lie_series``).

Blocks are (2 jmax + 1) x (2 jmax + 1) complex arrays indexed by j + jmax.
``OperatorMatrix.data`` holds the nonzero blocks keyed by lattice
enumeration index, in ascending order; the target index of a product of
blocks comes from the enumeration's convolution table.  ``MultiIndex`` keys
appear only at the boundary: the dict constructor and the read-only
``blocks`` view.

Every stored block holds three invariants:

* its j = 0 row and column are identically zero (operators act on
  zero-x-average functions);
* it is nonzero and read-only, so operators may share block arrays;
* for a real operator, R(-l) = conj(R(l)) reversed in j and j', exactly.

The mirror pairs l, -l split the enumeration into a canonical half, the
indices p with p <= neg[p], and its mirror image; only p = 0 is its own
mirror.  ``compose`` of two real operators sums the canonical half and
mirrors the rest.

``compose`` sums its target blocks on one of two paths.  The GEMM path
multiplies each target-valid block pair (P of them) as dense matrices, P nj^3
multiply-adds.  The join path (``_accel.join_into``) pairs each nonzero
A_a[i, k] with the nonzeros B_b[k, j] of row k, J products in all; it pays
where blocks hold a few nonzero diagonals, as those of multiplications by
functions with few x-modes do.  A call counts J from its operands and joins
when J * JOIN_COST < P nj^3.

The dict constructor and ``from_indexed`` take outside blocks and normalize
them (copy, zero the j = 0 row and column, symmetrize when real); ``_like``
trusts its blocks, because the algebra's results (sums, scalar multiples,
products, splits, restrictions, phi-derivatives) already hold the
invariants, and only drops zero blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._accel import join_into
from .analytic import AnalyticFunction, dx, mean_phi_x, multiply, om_dphi, pi0, pi0_perp
from .errors import SeriesDivergenceError
from .lattice import get_enumeration

__all__ = [
    "OperatorMatrix",
    "DifferentialOperator",
    "identity_op",
    "mult_op",
    "x_symbol_op",
    "dx_op",
    "smoothing_generator_op",
    "op_norm",
    "restrict",
    "split_by_norm",
    "apply_op",
    "compose",
    "commutator",
    "phi_derivative",
    "materialize",
    "exp_apply",
    "exp_conjugate",
    "lie_series",
    "to_dense",
    "dense_labels",
]

MAX_SERIES_TERMS = 60

# The cost of one product of compose's join path, in GEMM multiply-adds.
# Measured on random real operators whose blocks all hold d nonzero diagonals,
# one BLAS thread: a join product cost 140-280 multiply-adds for d = 2-12 on
# the full M=2, K=8, jmax=16 lattice and 170-390 for d = 2-32 with K=12,
# jmax=32 on site 1 alone; at d = 1 the fixed cost of a call raises it to 440
# and 700.  400 sends d = 1 on both truncations and d = 2 on the second to the
# join, the faster path for each, and every denser case to the GEMM loop.
JOIN_COST = 400


class OperatorMatrix:
    """Bounded block-convolution operator.

    The nonzero counts and entry lists that ``compose`` reads are computed
    once, on first use, and kept in slots: the blocks are read-only, and Lie
    series pass the same operators to ``compose`` again and again.
    """

    __slots__ = ("lattice", "jmax", "data", "real", "_counts", "_entry_lists")

    def __init__(self, lattice, jmax, blocks=None, real=True):
        """Build from a dict {MultiIndex: block}; indices outside the truncation are dropped."""
        index_of = get_enumeration(lattice).index_of
        by_index = {index_of[l]: b for l, b in (blocks or {}).items() if l in index_of}
        self._set(lattice, jmax, by_index, real)

    @classmethod
    def from_indexed(cls, lattice, jmax, blocks, real=True):
        """Build from a dict {enumeration index: block}."""
        out = cls.__new__(cls)
        out._set(lattice, jmax, blocks, real)
        return out

    def _set(self, lattice, jmax, blocks, real, trusted=False):
        self.lattice = lattice
        self.jmax = int(jmax)
        self.real = bool(real)
        self.data = _sealed(blocks if trusted else self._normalized(blocks))
        self._counts = None
        self._entry_lists = None

    @property
    def nj(self) -> int:
        return 2 * self.jmax + 1

    def nonzero_counts(self):
        """(column counts, row counts) of each block's nonzeros, as float
        arrays of shape (blocks, nj) in block order."""
        if self._counts is None:
            blocks = self.data.values()
            self._counts = (np.array([np.count_nonzero(b, axis=0) for b in blocks], dtype=float),
                            np.array([np.count_nonzero(b, axis=1) for b in blocks], dtype=float))
        return self._counts

    def nonzero_entries(self):
        """(block, row, column, value) arrays of the nonzero entries, block by
        block in C order."""
        if self._entry_lists is None:
            blocks = list(self.data.values())
            nj = self.nj
            flat = [np.flatnonzero(b != 0) for b in blocks]
            pos = np.concatenate(flat)
            self._entry_lists = (
                np.repeat(np.arange(len(blocks)), [f.size for f in flat]), pos // nj, pos % nj,
                np.concatenate([b.ravel()[f] for b, f in zip(blocks, flat)]))
        return self._entry_lists

    @property
    def blocks(self):
        """Read-only {MultiIndex: block} of the nonzero blocks, in enumeration order."""
        indices = get_enumeration(self.lattice).indices
        return MappingProxyType({indices[p]: b for p, b in self.data.items()})

    def _normalized(self, raw):
        """Copies of the blocks with the j = 0 row and column zeroed, symmetrized
        when real."""
        nj = self.nj
        kept = {}
        for p, b in raw.items():
            b = np.array(b, dtype=complex)
            if b.shape != (nj, nj):
                raise ValueError("block shape mismatch")
            b[self.jmax, :] = 0.0
            b[:, self.jmax] = 0.0
            kept[int(p)] = b
        if self.real:
            neg = get_enumeration(self.lattice).neg.tolist()
            zero = np.zeros((nj, nj), dtype=complex)
            kept = {p: 0.5 * (kept.get(p, zero) + _mirror(kept.get(neg[p], zero)))
                    for p in set(kept) | {neg[p] for p in kept}}
        return kept

    # -- linear structure ---------------------------------------------------

    def _check_compat(self, other):
        if self.lattice != other.lattice or self.jmax != other.jmax:
            raise ValueError("incompatible operator truncations")

    def _like(self, blocks, real=None):
        """Trusted constructor for results of the algebra: the blocks already
        hold the invariants, so only zero blocks are dropped."""
        out = OperatorMatrix.__new__(OperatorMatrix)
        out._set(self.lattice, self.jmax, blocks,
                 self.real if real is None else real, trusted=True)
        return out

    def __add__(self, other):
        self._check_compat(other)
        out = dict(self.data)
        for p, b in other.data.items():
            out[p] = out[p] + b if p in out else b
        return self._like(out, self.real and other.real)

    def __sub__(self, other):
        self._check_compat(other)
        out = dict(self.data)
        for p, b in other.data.items():
            out[p] = out[p] - b if p in out else -b
        return self._like(out, self.real and other.real)

    def __mul__(self, scalar):
        s = complex(scalar)
        return self._like({p: s * b for p, b in self.data.items()},
                          self.real and s.imag == 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __matmul__(self, other):
        return compose(self, other)

    def __repr__(self):
        return f"OperatorMatrix(jmax={self.jmax}, blocks={len(self.data)})"


def _mirror(b):
    """conj(b) reversed in j and j': the block of a real operator at -l."""
    return np.conj(b[::-1, ::-1])


def _sealed(blocks):
    """The nonzero blocks, sorted by index and marked read-only."""
    out = {}
    for p in sorted(blocks):
        b = blocks[p]
        if b.any():
            b.flags.writeable = False
            out[p] = b
    return out


def identity_op(lattice, jmax) -> OperatorMatrix:
    nj = 2 * jmax + 1
    return OperatorMatrix.from_indexed(lattice, jmax, {0: np.eye(nj, dtype=complex)})


def x_symbol_op(lattice, jmax, symbol) -> OperatorMatrix:
    """Fourier multiplier in x: diagonal entries symbol(j) for j != 0."""
    nj = 2 * jmax + 1
    d = np.zeros(nj, dtype=complex)
    for j in range(-jmax, jmax + 1):
        if j != 0:
            d[j + jmax] = symbol(j)
    return OperatorMatrix.from_indexed(lattice, jmax, {0: np.diag(d)})


def dx_op(lattice, jmax, order=1) -> OperatorMatrix:
    return x_symbol_op(lattice, jmax, lambda j: (1j * j) ** order)


def _toeplitz_blocks(a: AnalyticFunction, column_divisor):
    """Blocks b_p[j, j'] = a(l_p, j - j') / column_divisor[j'] of every nonzero row p."""
    jmax = a.jmax
    jj = np.arange(-jmax, jmax + 1)
    shift = jj[:, None] - jj[None, :]
    inside = np.abs(shift) <= jmax
    rows = np.flatnonzero(a.data.any(axis=1))
    stack = np.where(inside, a.data[rows][:, np.where(inside, shift + jmax, 0)], 0.0)
    blocks = dict(zip(rows.tolist(), stack / column_divisor))
    return OperatorMatrix.from_indexed(a.lattice, jmax, blocks, real=a.real)


def mult_op(a: AnalyticFunction) -> OperatorMatrix:
    """Multiplication by a(phi, x), restricted to zero-average functions."""
    return _toeplitz_blocks(a, 1.0)


def smoothing_generator_op(g: AnalyticFunction) -> OperatorMatrix:
    """The order -1 generator pi0_perp g(phi, x) dx^{-1}."""
    jj = np.arange(-g.jmax, g.jmax + 1)
    # the j' = 0 column is dropped by the block normalization
    return _toeplitz_blocks(g, np.where(jj != 0, 1j * jj, 1.0))


def op_norm(R: OperatorMatrix, sigma: float, m: float = 0.0) -> float:
    """Decay norm sum_l e^{sigma |l|_eta} sup_{j'} sum_j e^{sigma |j-j'|} |R(l)[j,j']| |j'|^{-m}."""
    jmax = R.jmax
    jj = np.arange(-jmax, jmax + 1)
    W = np.exp(sigma * np.abs(jj[:, None] - jj[None, :]))
    absj = np.abs(jj).astype(float)
    absj[jmax] = 1.0
    colw = absj ** (-float(m)) if m else np.ones_like(absj)
    colw[jmax] = 0.0
    norms = get_enumeration(R.lattice).eta_norms
    total = 0.0
    for p, b in R.data.items():
        cols = (W * np.abs(b)).sum(axis=0) * colw
        total += math.exp(sigma * norms[p]) * float(cols.max())
    return total


def split_by_norm(R: OperatorMatrix, N: float):
    """The parts of R with blocks |l|_eta <= N and > N."""
    inside = get_enumeration(R.lattice).within(N)
    low = {p: b for p, b in R.data.items() if inside[p]}
    high = {p: b for p, b in R.data.items() if not inside[p]}
    return R._like(low), R._like(high)


def restrict(R: OperatorMatrix, jwin: int, lwin: float) -> OperatorMatrix:
    """Zero out rows/columns with |j| > jwin and drop blocks |l|_eta > lwin."""
    keep = np.abs(np.arange(-R.jmax, R.jmax + 1)) <= jwin
    mask = np.outer(keep, keep)
    inside = get_enumeration(R.lattice).within(lwin)
    return R._like({p: b * mask for p, b in R.data.items() if inside[p]})


def apply_op(R: OperatorMatrix, u: AnalyticFunction) -> AnalyticFunction:
    """Apply the operator to a function (its j = 0 column is ignored)."""
    if R.lattice != u.lattice or R.jmax != u.jmax:
        raise ValueError("incompatible truncations")
    conv = get_enumeration(u.lattice).conv_table()
    vecs = u.data.copy()
    vecs[:, u.jmax] = 0.0
    rows = np.flatnonzero(vecs.any(axis=1))
    out = np.zeros_like(u.data)
    for pd, b in R.data.items():
        target = conv[pd, rows]
        hit = target >= 0
        # l_d + l_p is injective in p, so the targets of one block are distinct
        out[target[hit]] += vecs[rows[hit]] @ b.T
    return u._like(out, R.real and u.real)


def compose(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """Block-convolution product A B.

    A product of two real operators is real, so only its canonical half
    (targets q <= neg[q]) is summed; the other blocks are mirrors, and the
    self-mirrored q = 0 block is symmetrized.  Each call takes one of two
    paths, chosen from nonzero counts of its operands:

    * the GEMM path multiplies every target-valid block pair as dense
      matrices and sums each target block over its pairs, A-major and
      B-minor;
    * the join path (``_accel.join_into``) pairs each nonzero entry
      A_a[i, k] with the nonzeros B_b[k, j] of row k and sums the products.

    With P target-valid block pairs and J products in the join, the join
    runs when J * JOIN_COST < P * nj^3.  Blocks of multiplications by
    functions with few x-modes are Toeplitz with few nonzero diagonals, so
    there J is a small fraction of the GEMM's P * nj^3 multiply-adds.
    """
    A._check_compat(B)
    enum = get_enumeration(A.lattice)
    real = A.real and B.real
    if not A.data or not B.data:
        return A._like({}, real=real)
    a_blocks, b_blocks = list(A.data.values()), list(B.data.values())
    targets = enum.conv_table()[np.ix_(list(A.data), list(B.data))]
    if real:
        # a target outside the canonical half maps to -1, like one outside the lattice
        targets = np.where(enum.half[targets], targets, -1)
    valid = targets >= 0
    # products of the join: nonzeros of column k of A_a times those of row k of B_b
    joined = (A.nonzero_counts()[0] @ B.nonzero_counts()[1].T)[valid].sum()
    if joined * JOIN_COST < np.count_nonzero(valid) * A.nj ** 3:
        out = _join(targets, A, B)
    else:
        out = {}
        for ba, row in zip(a_blocks, targets.tolist()):
            for q, bb in zip(row, b_blocks):
                if q >= 0:
                    acc = out.get(q)
                    prod = ba @ bb
                    out[q] = prod if acc is None else acc + prod
    if real:
        neg = enum.neg.tolist()
        for q, b in list(out.items()):
            out[neg[q]] = 0.5 * (b + _mirror(b)) if neg[q] == q else _mirror(b)
    return A._like(out, real=real)


def _join(targets, A, B):
    """{target: block} of the block products, summed entry by entry over the
    nonzeros of the blocks."""
    valid = targets >= 0
    hit = np.zeros(targets.max() + 1, dtype=bool)
    hit[targets[valid]] = True
    kept = np.flatnonzero(hit)
    # out[slot] is the block of target kept[slot]
    slot = np.full(targets.shape, -1)
    slot[valid] = (np.cumsum(hit) - 1)[targets[valid]]
    out = np.zeros((kept.size, A.nj, A.nj), dtype=complex)
    join_into(*A.nonzero_entries(), *B.nonzero_entries(), slot, out)
    return dict(zip(kept.tolist(), out))


def commutator(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """[A, B] = A B - B A."""
    return compose(A, B) - compose(B, A)


def phi_derivative(R: OperatorMatrix, omega) -> OperatorMatrix:
    """Derivative of the coefficients along omega: blocks scaled by i (omega.l)."""
    dots = get_enumeration(R.lattice).dots(omega)
    return R._like({p: (1j * dots[p]) * b for p, b in R.data.items() if p})


# -- structured differential operators ---------------------------------------


@dataclass
class DifferentialOperator:
    """omega.d_phi + lambda3 dx^3 + B dx + C, the one home of omega.d_phi.

    ``materialize`` gives the bounded part lambda3 dx^3 + B dx + C as blocks.
    """

    omega: np.ndarray
    lambda3: float
    B: AnalyticFunction
    C: AnalyticFunction

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        if self.B.lattice != self.C.lattice or self.B.jmax != self.C.jmax:
            raise ValueError("coefficient truncations differ")

    @property
    def lattice(self):
        return self.B.lattice

    @property
    def jmax(self):
        return self.B.jmax

    def restrict(self, jmax: int) -> "DifferentialOperator":
        """L with B and C restricted to the x-modes |j| <= jmax."""
        return DifferentialOperator(self.omega, self.lambda3,
                                    self.B.restrict(jmax), self.C.restrict(jmax))

    def lambda1(self, tol=1e-8):
        """x-average of B, which must be phi-independent up to tol."""
        avg = pi0(self.B)
        const = mean_phi_x(avg)
        rest = (avg - AnalyticFunction.constant(self.B.lattice, self.B.jmax, const)).norm(0.0)
        scale = max(1.0, abs(const))
        if rest > tol * scale:
            raise ValueError(f"x-average of B varies with phi (norm {rest:.3e})")
        return float(const.real)

    def apply(self, u: AnalyticFunction) -> AnalyticFunction:
        """Structured application, projected back to zero x-average."""
        out = om_dphi(u, self.omega) + self.lambda3 * dx(u, 3)
        if not self.B.is_zero():
            out = out + multiply(self.B, dx(u, 1))
        if not self.C.is_zero():
            out = out + multiply(self.C, u)
        return pi0_perp(out)


def materialize(L: DifferentialOperator) -> OperatorMatrix:
    """Block representation of lambda3 dx^3 + B dx + C: L without omega.d_phi,
    which has no block form."""
    lat, jmax = L.lattice, L.jmax
    out = x_symbol_op(lat, jmax, lambda j: -1j * L.lambda3 * j**3)
    if not L.B.is_zero():
        out = out + compose(mult_op(L.B), dx_op(lat, jmax))
    if not L.C.is_zero():
        out = out + mult_op(L.C)
    return out


# -- exponential series -------------------------------------------------------


def _series(term, step, norm, tol, max_terms):
    """sum_k term_k with term_k = step(term_{k-1}, k), stopped by the ratio test.

    Stops after the first term with norm <= tol * max(1, norm(term_0)) and
    raises SeriesDivergenceError when three successive term norms stop
    decreasing from k = 6 on, or when max_terms pass.  Returns (sum, terms_used).
    """
    total = term
    norms = [norm(term)]
    for k in range(1, max_terms + 1):
        term = step(term, k)
        total = total + term
        norms.append(norm(term))
        if norms[-1] <= tol * max(1.0, norms[0]):
            return total, k + 1
        if k >= 6 and norms[-1] >= norms[-2] >= norms[-3]:
            raise SeriesDivergenceError(
                f"series terms stopped decreasing at k={k} (norm {norms[-1]:.3e})")
    raise SeriesDivergenceError(f"series did not reach tol={tol} in {max_terms} terms")


def lie_series(G: OperatorMatrix, X: OperatorMatrix, tol=1e-14, max_terms=MAX_SERIES_TERMS,
               start_factor=1):
    """sum_{k>=0} Ad_G^k(X) / (k + start_factor)!, with Ad_G(X) = [X, G].

    With start_factor=0 this is e^{-G} X e^{G} = X + [X,G] + [[X,G],G]/2! + ...;
    with start_factor=1 it is X + [X,G]/2! + ... = the series such that
    e^{-G} (omega.d_phi) e^{G} = omega.d_phi + lie_series(G, phi_derivative(G)).
    Returns (sum, terms_used).
    """
    lead = 1.0 / math.factorial(start_factor)
    # a unit factor needs no scaled copy of X
    return _series(X if lead == 1.0 else X * lead,
                   lambda term, k: commutator(term, G) * (1.0 / (k + start_factor)),
                   lambda term: op_norm(term, 0.0), tol, max_terms)


def exp_conjugate(G: OperatorMatrix, B: OperatorMatrix, tol=1e-14,
                  max_terms=MAX_SERIES_TERMS) -> OperatorMatrix:
    """e^{-G} B e^{G} with the tail bounded below tol by the ratio test.

    Conjugating omega.d_phi + B adds lie_series(G, phi_derivative(G, omega))
    to this.
    """
    if not G.data:
        return B
    return lie_series(G, B, tol=tol, max_terms=max_terms, start_factor=0)[0]


def exp_apply(G: OperatorMatrix, u: AnalyticFunction, tol=1e-14,
              max_terms=MAX_SERIES_TERMS) -> AnalyticFunction:
    """e^{G} u as a truncated series."""
    if not G.data or u.is_zero():
        return u
    return _series(u, lambda term, k: apply_op(G, term) * (1.0 / k),
                   lambda term: term.norm(0.0), tol, max_terms)[0]


# -- dense helpers (small truncations, oracles, direct solves) ----------------


def dense_labels(lattice, jmax):
    """Basis order for to_dense: lattice index major, then j skipping 0."""
    enum = get_enumeration(lattice)
    jlist = [j for j in range(-jmax, jmax + 1) if j != 0]
    return [(l, j) for l in enum.indices for j in jlist], jlist


def to_dense(R: OperatorMatrix) -> np.ndarray:
    """Full matrix over (l, j != 0)."""
    enum = get_enumeration(R.lattice)
    conv = enum.conv_table()
    jslots = np.flatnonzero(np.arange(-R.jmax, R.jmax + 1))
    nj = jslots.size
    n = enum.size * nj
    M = np.zeros((n, n), dtype=complex)
    grid = M.reshape(enum.size, nj, enum.size, nj)     # [p, j, q, j'] view
    for pd, b in R.data.items():
        q = np.flatnonzero(conv[pd] >= 0)
        grid[conv[pd, q], :, q, :] += b[np.ix_(jslots, jslots)]
    return M
