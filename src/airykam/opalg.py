"""Linear operators on the truncated Fourier basis.

An operator is stored as block coefficients R(l)[j, j'] acting by
(Ru)_j(l) = sum R(l - l')[j, j'] u_{j'}(l'), i.e. it is a convolution in the
phi-frequencies, so every OperatorMatrix is bounded.  The unbounded term
omega.d_phi cannot be written in that form: it lives only in
``DifferentialOperator``, and a conjugation adds its contribution as the Lie
series of the generator's phi-derivative (see ``lie_series``).

Blocks are (2 jmax + 1) x (2 jmax + 1) complex arrays indexed by j + jmax.
An operator holds one stack of them: ``OperatorMatrix.index``, the ascending
lattice enumeration indices of its nonzero blocks, and ``stack``, a
read-only (blocks, nj, nj) array of those blocks in that order.  Sums merge
the index arrays; norms, nonzero counts and entry lists are reductions of
the stack; the target index of a product of blocks comes from the
enumeration's convolution table.  ``MultiIndex`` keys appear only at the
boundary: the dict constructor and the read-only ``blocks`` view.

Every stored block holds three invariants:

* its j = 0 row and column are identically zero (operators act on
  zero-x-average functions);
* it is nonzero: every result drops its zero blocks, found by one ``any``
  over its stack;
* for a real operator, R(-l) = conj(R(l)) reversed in j and j', exactly.

The dict constructor and ``from_stack`` normalize the blocks they are given
(copy, zero the j = 0 row and column, symmetrize when real); the results of
the algebra hold the invariants already.

The mirror pairs l, -l split the enumeration into a canonical half, the
indices p with p <= neg[p], and its mirror image; only p = 0 is its own
mirror.  ``compose`` of two real operators sums the canonical half and
mirrors the rest.  ``commutator`` shares that accumulation (``_product``):
it subtracts B A from A B on the canonical half, so the mirror blocks are
formed once, for the difference, which a Lie series scales in place.
Diagonals need no products: [diag(d), G] is G scaled entrywise by
d_j - d_j' (``diag_commutator``), and a dx is built as blocks
(``mult_dx_op``).  ``exp_conjugate`` (stopped relative to the dispersion)
has no program caller; tests and ``perfbench`` use it.

``compose`` forms only the block pairs that can matter to its caller.  The
block norm |R_p| = max_j' sum_j |R_p[j, j']| (cached per operator) is the
operator norm induced by the l1 norm, so it is submultiplicative,
|A_a B_b| <= |A_a| |B_b|, and ``op_norm(R, 0)`` is sum_p |R_p|.  A target
block is a sum of pair products, so leaving out a set of pairs moves the
product by at most the sum of their bounds in ``op_norm(., 0)`` (twice that
in a real product, whose mirror blocks repeat each canonical-half pair).
``compose`` drops the longest smallest-bound-first run of its target-valid
pairs that fits in a budget: by default ``analytic.PRUNE_REL`` |A| |B|, and in
the KAM reduction a share of the Lie series' stop tolerance (see
``series_budget`` and ``lie_series``).

``compose`` sums the kept pairs (P of them) into one stack of target blocks
on one of two paths.  The GEMM path multiplies each left block by all of its
kept right blocks in one batched matmul, left block by left block, P nj^3
multiply-adds.  The join path (``_accel.join_into``) pairs each nonzero
A_a[i, k] with the nonzeros B_b[k, j] of row k, J products in all; it pays
where blocks hold a few nonzero diagonals, as those of multiplications by
functions with few x-modes do.  A call counts J over its kept pairs and joins
when J * JOIN_COST < P nj^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import analytic
from ._accel import join_into
from .analytic import AnalyticFunction, dx, mean_phi_x, multiply, om_dphi, pi0, pi0_perp
from .errors import SeriesDivergenceError
from .lattice import get_enumeration

__all__ = [
    "OperatorMatrix",
    "DifferentialOperator",
    "mult_op",
    "mult_dx_op",
    "x_symbol_op",
    "dx_op",
    "smoothing_generator_op",
    "split_diagonal",
    "op_norm",
    "restrict",
    "split_by_norm",
    "apply_op",
    "compose",
    "commutator",
    "diag_commutator",
    "phi_derivative",
    "materialize",
    "exp_apply",
    "exp_conjugate",
    "lie_series",
    "series_budget",
    "to_dense",
    "dense_labels",
]

# A Lie or exponential series stops at its first term with norm at or below
# SERIES_TOL max(1, |term_0|), and raises after MAX_SERIES_TERMS terms.
SERIES_TOL = 1e-15
MAX_SERIES_TERMS = 60

# Largest variation in phi that the x-average of a first-order coefficient
# may carry, relative to max(1, |average|).
LAMBDA1_TOL = 1e-8

# The cost of one product of compose's join path, in GEMM multiply-adds.
# Measured on random real operators whose blocks all hold d nonzero diagonals,
# one BLAS thread: a join product cost 140-280 multiply-adds for d = 2-12 on
# the full M=2, K=8, jmax=16 lattice and 170-390 for d = 2-32 with K=12,
# jmax=32 on site 1 alone; at d = 1 the fixed cost of a call raises it to 440
# and 700.  400 sends d = 1 on both truncations and d = 2 on the second to the
# join, the faster path for each, and every denser case to the GEMM loop.
JOIN_COST = 400


class OperatorMatrix:
    """Bounded block-convolution operator: blocks ``stack[k]`` at enumeration
    indices ``index[k]`` (see the module docstring).  The block norms, nonzero
    counts and entry lists ``compose`` reads are computed once, on first use:
    a Lie series passes the same generator to ``compose`` in every term."""

    def __init__(self, lattice, jmax, blocks=None, real=True):
        """Build from a dict {MultiIndex: block}, normalized as by
        ``from_stack``; indices outside the truncation are dropped."""
        index_of = get_enumeration(lattice).index_of
        kept = {index_of[l]: b for l, b in (blocks or {}).items() if l in index_of}
        self._normalize(lattice, jmax, list(kept), list(kept.values()), real)

    @classmethod
    def from_stack(cls, lattice, jmax, index, stack, real=True):
        """Build from blocks stack[k] at distinct indices index[k], in any order:
        copies with the j = 0 row and column zeroed, symmetrized when real."""
        out = cls.__new__(cls)
        out._normalize(lattice, jmax, index, stack, real)
        return out

    def _normalize(self, lattice, jmax, index, stack, real):
        index, stack = np.asarray(index, dtype=np.int64), np.asarray(stack, dtype=complex)
        nj = 2 * int(jmax) + 1
        if stack.size and stack.shape != (index.size, nj, nj):
            raise ValueError("block shape mismatch")
        order = np.argsort(index)
        # the fancy index copies, so the caller's blocks stay as they are
        index, stack = index[order], stack.reshape(-1, nj, nj)[order]
        stack[:, jmax, :] = 0.0
        stack[:, :, jmax] = 0.0
        if real:
            neg = get_enumeration(lattice).neg
            full = _union(index, neg[index])
            stack = _spread(index, stack, full)
            stack = 0.5 * (stack + _mirror(stack[np.searchsorted(full, neg[full])]))
            index = full
        self._set(lattice, jmax, index, stack, real)

    def _set(self, lattice, jmax, index, stack, real):
        """Keep the blocks of stack that are nonzero, sealed read-only."""
        nonzero = stack.any(axis=(1, 2))
        if not nonzero.all():
            index, stack = index[nonzero], stack[nonzero]
        stack.flags.writeable = False
        self.lattice, self.jmax, self.real = lattice, int(jmax), bool(real)
        self.index, self.stack = index, stack

    @property
    def nj(self) -> int:
        return 2 * self.jmax + 1

    @cached_property
    def nonzero_counts(self):
        """(column counts, row counts) of each block's nonzeros, as float
        arrays of shape (blocks, nj) in block order."""
        nz = self.stack != 0
        return (np.count_nonzero(nz, axis=1).astype(float),
                np.count_nonzero(nz, axis=2).astype(float))

    @cached_property
    def block_norms(self):
        """Column-sum norm max_j' sum_j |R_p[j, j']| of each block, in block order."""
        return np.abs(self.stack).sum(axis=1).max(axis=1)

    @cached_property
    def nonzero_entries(self):
        """(block, row, column, value) arrays of the nonzero entries, block by
        block in C order."""
        pos = np.flatnonzero(self.stack != 0)
        block, at = np.divmod(pos, self.nj ** 2)
        return block, at // self.nj, at % self.nj, self.stack.ravel()[pos]

    @property
    def blocks(self):
        """Read-only {MultiIndex: block} of the nonzero blocks, in enumeration order."""
        indices = get_enumeration(self.lattice).indices
        return MappingProxyType({indices[p]: b for p, b in zip(self.index.tolist(), self.stack)})

    # -- linear structure ---------------------------------------------------

    def _check_compat(self, other):
        if self.lattice != other.lattice or self.jmax != other.jmax:
            raise ValueError("incompatible operator truncations")

    def _like(self, index, stack, real=None):
        """Trusted constructor for results of the algebra: the blocks at the
        ascending indices already hold the invariants, so only zero blocks
        are dropped."""
        out = OperatorMatrix.__new__(OperatorMatrix)
        out._set(self.lattice, self.jmax, index, stack, self.real if real is None else real)
        return out

    def __add__(self, other):
        self._check_compat(other)
        return self._like(*_merged(self.index, self.stack, other.index, other.stack, np.add),
                          self.real and other.real)

    def __sub__(self, other):
        self._check_compat(other)
        return self._like(*_merged(self.index, self.stack, other.index, other.stack,
                                   np.subtract),
                          self.real and other.real)

    def __mul__(self, scalar):
        s = complex(scalar)
        return self._like(self.index, s * self.stack, self.real and s.imag == 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __repr__(self):
        return f"OperatorMatrix(jmax={self.jmax}, blocks={self.index.size})"


def _mirror(b):
    """conj(b) reversed in j and j' (of each block of a stack): R(-l) of a real R."""
    return np.conj(b[..., ::-1, ::-1])


def _union(a, b):
    """The ascending union of two index arrays (``np.union1d`` imports ``numpy.ma``)."""
    hit = np.zeros(max(a.max(initial=-1), b.max(initial=-1)) + 1, dtype=bool)
    hit[a] = True
    hit[b] = True
    return np.flatnonzero(hit)


def _merged(ia, sa, ib, sb, op):
    """(index, stack) of op(A, B) for the blocks sa, sb at ascending indices
    ia, ib: op(a, b) over the union of the indices, a zero block standing in
    where one operand has none."""
    index = _union(ia, ib)
    return index, op(_spread(ia, sa, index), _spread(ib, sb, index))


def _spread(index, stack, union):
    """The blocks stack at the positions of index in union, zero elsewhere."""
    if index.size == union.size:
        return stack
    out = np.zeros((union.size,) + stack.shape[1:], dtype=complex)
    out[np.searchsorted(union, index)] = stack
    return out


def x_symbol_op(lattice, jmax, symbol) -> OperatorMatrix:
    """Fourier multiplier in x: diagonal entries symbol(j) for j != 0."""
    d = np.array([symbol(j) if j else 0.0 for j in range(-jmax, jmax + 1)], dtype=complex)
    return OperatorMatrix.from_stack(lattice, jmax, [0], np.diag(d)[None])


def dx_op(lattice, jmax, order=1) -> OperatorMatrix:
    return x_symbol_op(lattice, jmax, lambda j: (1j * j) ** order)


def _toeplitz_blocks(a: AnalyticFunction, scale=None, column=None):
    """Blocks b_p[j, j'] = scale(a(l_p, j - j'), column[j']) of each nonzero row p."""
    jmax = a.jmax
    jj = np.arange(-jmax, jmax + 1)
    shift = jj[:, None] - jj[None, :]
    inside = np.abs(shift) <= jmax
    rows = np.flatnonzero(a.data.any(axis=1))
    stack = np.where(inside, a.data[rows][:, np.where(inside, shift + jmax, 0)], 0.0)
    if scale is not None:
        stack = scale(stack, column)
    return OperatorMatrix.from_stack(a.lattice, jmax, rows, stack)


def mult_op(a: AnalyticFunction) -> OperatorMatrix:
    """Multiplication by a(phi, x), restricted to zero-average functions."""
    return _toeplitz_blocks(a)


def mult_dx_op(a: AnalyticFunction) -> OperatorMatrix:
    """a(phi, x) dx: the blocks of ``mult_op(a)`` with column j' times i j'."""
    return _toeplitz_blocks(a, np.multiply, 1j * np.arange(-a.jmax, a.jmax + 1))


def smoothing_generator_op(g: AnalyticFunction) -> OperatorMatrix:
    """The order -1 generator pi0_perp g(phi, x) dx^{-1}."""
    jj = np.arange(-g.jmax, g.jmax + 1)
    # the j' = 0 column is dropped by the block normalization
    return _toeplitz_blocks(g, np.divide, np.where(jj != 0, 1j * jj, 1.0))


def op_norm(R: OperatorMatrix, sigma: float) -> float:
    """Decay norm sum_l e^{sigma |l|_eta} sup_{j'} sum_j e^{sigma |j-j'|} |R(l)[j,j']|.

    At sigma = 0 it is the sum of the cached block norms."""
    if sigma == 0.0:
        return sum(R.block_norms.tolist(), 0.0)
    jj = np.arange(-R.jmax, R.jmax + 1)
    W = np.exp(sigma * np.abs(jj[:, None] - jj[None, :]))
    cols = (W * np.abs(R.stack)).sum(axis=1).max(axis=1).tolist()
    norms = get_enumeration(R.lattice).eta_norms[R.index].tolist()
    return sum((math.exp(sigma * n) * c for n, c in zip(norms, cols)), 0.0)


def split_by_norm(R: OperatorMatrix, N: float):
    """The parts of R with blocks |l|_eta <= N and > N, views of its stack."""
    k = _inside(R, N)
    return R._like(R.index[:k], R.stack[:k]), R._like(R.index[k:], R.stack[k:])


def _inside(R, N):
    """How many of R's blocks have |l|_eta <= N; they lead, as the enumeration ascends in it."""
    return np.count_nonzero(get_enumeration(R.lattice).within(N)[R.index])


def split_diagonal(R: OperatorMatrix):
    """(d, R - diag(d)), d the diagonal of R's l = 0 block indexed j + jmax."""
    if not R.index.size or R.index[0]:
        return np.zeros(R.nj, dtype=complex), R
    d = np.diag(R.stack[0]).copy()
    stack = R.stack.copy()
    stack[0] -= np.diag(d)
    return d, R._like(R.index, stack)


def restrict(R: OperatorMatrix, jwin: int, lwin: float) -> OperatorMatrix:
    """Zero out rows/columns with |j| > jwin and drop blocks |l|_eta > lwin."""
    keep = np.abs(np.arange(-R.jmax, R.jmax + 1)) <= jwin
    k = _inside(R, lwin)
    return R._like(R.index[:k], R.stack[:k] * np.outer(keep, keep))


def apply_op(R: OperatorMatrix, u: AnalyticFunction) -> AnalyticFunction:
    """Apply a real operator to a function (its j = 0 column is ignored)."""
    if R.lattice != u.lattice or R.jmax != u.jmax:
        raise ValueError("incompatible truncations")
    if not R.real:
        raise ValueError("functions are real-on-real: cannot apply a non-real operator")
    conv = get_enumeration(u.lattice).conv_table()
    vecs = u.data.copy()
    vecs[:, u.jmax] = 0.0
    rows = np.flatnonzero(vecs.any(axis=1))
    out = np.zeros_like(u.data)
    for pd, b in zip(R.index.tolist(), R.stack):
        target = conv[pd, rows]
        hit = target >= 0
        # l_d + l_p is injective in p, so the targets of one block are distinct
        out[target[hit]] += vecs[rows[hit]] @ b.T
    return u._like(out)


def compose(A: OperatorMatrix, B: OperatorMatrix, budget=None) -> OperatorMatrix:
    """Block-convolution product A B, less the block pairs that cannot matter.

    The result differs from the full product by at most ``budget`` in
    ``op_norm(., 0)``, by default ``analytic.PRUNE_REL |A| |B|``, the rule of
    ``analytic.multiply``.  A real product sums its canonical half (targets
    q <= neg[q]) and mirrors the rest, symmetrizing q = 0.  The kept pairs
    are summed on the GEMM path, A-major and B-minor, or on the join path
    (the module docstring gives the pruning rule and the path choice).
    """
    A._check_compat(B)
    return _completed(A, *_product(A, B, budget), A.real and B.real)


def _product(A, B, budget):
    """(targets, blocks) of A B before the mirror blocks: for real operands
    only the canonical half, with the q = 0 block symmetrized.  The targets
    ascend, the blocks are a fresh stack, and any of them may be zero."""
    enum = get_enumeration(A.lattice)
    real = A.real and B.real
    targets = enum.conv_table()[np.ix_(A.index, B.index)]
    if real:
        # a target outside the canonical half maps to -1, like one outside the lattice
        targets = np.where(enum.half[targets], targets, -1)
    if budget is None:
        budget = analytic.PRUNE_REL * op_norm(A, 0.0) * op_norm(B, 0.0)
    targets = _pruned(targets, A.block_norms, B.block_norms, budget / 2 if real else budget)
    valid = targets >= 0
    hit = np.zeros(enum.size, dtype=bool)
    hit[targets[valid]] = True
    kept = np.flatnonzero(hit)
    # A_a B_b adds to out[slot[a, b]], the block of target kept[slot[a, b]]
    slot = np.where(valid, np.cumsum(hit)[targets] - 1, -1)
    out = np.zeros((kept.size, A.nj, A.nj), dtype=complex)
    # products of the join: nonzeros of column k of A_a times those of row k of B_b
    joined = (A.nonzero_counts[0] @ B.nonzero_counts[1].T)[valid].sum()
    if joined * JOIN_COST < np.count_nonzero(valid) * A.nj ** 3:
        join_into(*_in_blocks(A.nonzero_entries, valid.any(axis=1)),
                  *_in_blocks(B.nonzero_entries, valid.any(axis=0)), slot, out)
    else:
        for ba, row in zip(A.stack, slot):
            cols = np.flatnonzero(row >= 0)
            if cols.size:
                # l_a + l_b is injective in b, so the targets of one left block are distinct
                out[row[cols]] += ba @ B.stack[cols]
    if real and kept.size and not kept[0]:
        out[0] = 0.5 * (out[0] + _mirror(out[0]))
    return kept, out


def _completed(A, targets, half, real):
    """The operator of the blocks half at targets (``_product``), completed
    by their mirror blocks when real; zero blocks are dropped."""
    if real:
        neg = get_enumeration(A.lattice).neg
        index = _union(targets, neg[targets])
        stack = _spread(targets, half, index)
        # the ascending targets start with q = 0, its own mirror, if they hold it
        lo = int(targets.size > 0 and not targets[0])
        stack[np.searchsorted(index, neg[targets[lo:]])] = _mirror(half[lo:])
        targets, half = index, stack
    return A._like(targets, half, real)


def _pruned(targets, a_norms, b_norms, budget):
    """targets with -1 at the longest prefix of the valid pairs, sorted by
    their bounds a_norms[a] b_norms[b], whose bounds sum to at most budget."""
    valid = np.flatnonzero(targets >= 0)
    bounds = np.outer(a_norms, b_norms).ravel()[valid]
    order = np.argsort(bounds, kind="stable")
    dropped = int(np.searchsorted(np.cumsum(bounds[order]), budget, side="right"))
    if not dropped:
        return targets
    out = targets.copy()
    out.flat[valid[order[:dropped]]] = -1
    return out


def _in_blocks(entries, used):
    """The entry lists of the blocks marked in used, in their order."""
    keep = used[entries[0]]
    return entries if keep.all() else tuple(e[keep] for e in entries)


def commutator(A: OperatorMatrix, B: OperatorMatrix, budget=None, scale=None) -> OperatorMatrix:
    """[A, B] = A B - B A, within ``budget`` in ``op_norm(., 0)``: each product
    may drop half of it (each takes its default budget without one).  A real
    ``scale`` multiplies the result, as ``commutator(A, B, budget) * scale``.

    The difference is taken on the products' canonical halves (``_product``)
    and scaled in place, so the mirror blocks are formed once."""
    A._check_compat(B)
    half = None if budget is None else 0.5 * budget
    index, stack = _merged(*_product(A, B, half), *_product(B, A, half), np.subtract)
    if scale is not None:
        np.multiply(scale, stack, out=stack)
    return _completed(A, index, stack, A.real and B.real)


def diag_commutator(d, G: OperatorMatrix) -> OperatorMatrix:
    """[diag(d), G], d indexed j + jmax: the blocks of G scaled by d_j - d_j'.
    With d_{-j} = conj(d_j), as for i Omega(j), a real G stays real."""
    return G._like(G.index, np.subtract.outer(d, d) * G.stack)


def phi_derivative(R: OperatorMatrix, omega) -> OperatorMatrix:
    """Derivative of the coefficients along omega: blocks scaled by i (omega.l)."""
    dots = get_enumeration(R.lattice).dots(omega)
    moving = R.index != 0
    index = R.index[moving]
    return R._like(index, (1j * dots[index])[:, None, None] * R.stack[moving])


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

    def lambda1(self):
        """x-average of B, which must be phi-independent up to ``LAMBDA1_TOL``."""
        avg = pi0(self.B)
        const = mean_phi_x(avg)
        rest = (avg - AnalyticFunction.constant(self.B.lattice, self.B.jmax, const)).norm(0.0)
        scale = max(1.0, abs(const))
        if rest > LAMBDA1_TOL * scale:
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
    out = x_symbol_op(L.lattice, L.jmax, lambda j: -1j * L.lambda3 * j**3)
    if not L.B.is_zero():
        out = out + mult_dx_op(L.B)
    if not L.C.is_zero():
        out = out + mult_op(L.C)
    return out


# -- exponential series -------------------------------------------------------


def _series(term, step, norm):
    """sum_k term_k with term_k = step(term_{k-1}, k), stopped by the ratio test.

    Stops after the first term with norm <= SERIES_TOL * max(1, norm(term_0))
    and raises SeriesDivergenceError when three successive term norms stop
    decreasing from k = 6 on, or when MAX_SERIES_TERMS pass.  Returns (sum, terms_used).
    """
    total = term
    norms = [norm(term)]
    for k in range(1, MAX_SERIES_TERMS + 1):
        term = step(term, k)
        total = total + term
        norms.append(norm(term))
        if norms[-1] <= SERIES_TOL * max(1.0, norms[0]):
            return total, k + 1
        if k >= 6 and norms[-1] >= norms[-2] >= norms[-3]:
            raise SeriesDivergenceError(
                f"series terms stopped decreasing at k={k} (norm {norms[-1]:.3e})")
    raise SeriesDivergenceError(f"series did not reach tol={SERIES_TOL} in {MAX_SERIES_TERMS} terms")


def series_budget(R: OperatorMatrix) -> float:
    """SERIES_TOL max(1, |R|) / MAX_SERIES_TERMS: what one product of a series
    that starts from R may drop, so that the products of a whole series drop
    no more than the series' own stop tolerance."""
    return SERIES_TOL * max(1.0, op_norm(R, 0.0)) / MAX_SERIES_TERMS


def lie_series(G: OperatorMatrix, X: OperatorMatrix, start_factor=1):
    """sum_{k>=0} Ad_G^k(X) / (k + start_factor)!, with Ad_G(X) = [X, G].

    With start_factor=0 this is e^{-G} X e^{G} = X + [X,G] + [[X,G],G]/2! + ...;
    with start_factor=1 it is X + [X,G]/2! + ..., so that
    e^{-G} L e^{G} = L + lie_series(G, [L, G]), [omega.d_phi, G] = phi_derivative(G).
    Returns (sum, terms_used).

    Term k is [term_{k-1}, G] / (k + start_factor), and its commutator takes
    the budget series_budget(term_0) (k + start_factor), so each term drops at
    most series_budget(term_0) and the at most MAX_SERIES_TERMS terms together
    at most SERIES_TOL max(1, |term_0|), the series' own stop tolerance.  The
    later commutators carry what a term dropped on, scaled by at most
    (2 |G|)^m / m! after m of them, which sums to a factor e^{2 |G|}.
    """
    lead = 1.0 / math.factorial(start_factor)
    # a unit factor needs no scaled copy of X
    first = X if lead == 1.0 else X * lead
    budget = series_budget(first)
    return _series(first,
                   lambda term, k: commutator(term, G, budget * (k + start_factor),
                                              1.0 / (k + start_factor)),
                   lambda term: op_norm(term, 0.0))


def exp_conjugate(G: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """e^{-G} B e^{G}, one series stopped relative to |B| (``lie_series``)."""
    if not G.index.size:
        return B
    return lie_series(G, B, start_factor=0)[0]


def exp_apply(G: OperatorMatrix, u: AnalyticFunction) -> AnalyticFunction:
    """e^{G} u as a truncated series."""
    if not G.index.size or u.is_zero():
        return u
    return _series(u, lambda term, k: apply_op(G, term) * (1.0 / k),
                   lambda term: term.norm(0.0))[0]


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
    for pd, b in zip(R.index.tolist(), R.stack[:, jslots[:, None], jslots]):
        q = np.flatnonzero(conv[pd] >= 0)
        grid[conv[pd, q], :, q, :] += b
    return M
