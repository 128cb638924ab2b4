"""Linear operators on the truncated Fourier basis.

An operator is stored as block coefficients R(l)[j, j'] acting by
(Ru)_j(l) = sum R(l - l')[j, j'] u_{j'}(l'), i.e. it is a convolution in the
phi-frequencies.  The unbounded term omega.d_phi cannot be written in that
form; operators that include it carry the frequency vector in ``omega`` and
all algebra helpers treat that part structurally.

Blocks are (2 jmax + 1) x (2 jmax + 1) complex arrays indexed by j + jmax;
the j = 0 row and column are kept identically zero (operators act on
zero-x-average functions).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticFunction, dx, multiply, om_dphi, pi0, pi0_perp
from .errors import SeriesDivergenceError
from .lattice import MultiIndex, eta_norm, get_enumeration

__all__ = [
    "OperatorMatrix",
    "DifferentialOperator",
    "identity_op",
    "mult_op",
    "x_symbol_op",
    "dx_op",
    "dx_inv_op",
    "smoothing_generator_op",
    "op_norm",
    "restrict",
    "apply_op",
    "compose",
    "commutator",
    "ad_power",
    "phi_derivative",
    "materialize",
    "exp_apply",
    "exp_conjugate",
    "lie_series",
    "dx3_commutator",
    "to_dense",
    "dense_labels",
]

log = logging.getLogger(__name__)

MAX_SERIES_TERMS = 60


class OperatorMatrix:
    """Block-convolution operator, optionally including omega.d_phi."""

    __slots__ = ("lattice", "jmax", "blocks", "omega", "real")

    def __init__(self, lattice, jmax, blocks=None, omega=None, real=True):
        self.lattice = lattice
        self.jmax = int(jmax)
        self.omega = None if omega is None else np.asarray(omega, dtype=float)
        self.real = bool(real)
        self.blocks = self._finalize(blocks or {})

    @property
    def nj(self) -> int:
        return 2 * self.jmax + 1

    def _finalize(self, raw):
        enum = get_enumeration(self.lattice)
        nj = self.nj
        kept = {}
        for l, b in raw.items():
            if l not in enum.index_of:
                continue
            b = np.asarray(b, dtype=complex)
            if b.shape != (nj, nj):
                raise ValueError("block shape mismatch")
            b = b.copy()
            b[self.jmax, :] = 0.0
            b[:, self.jmax] = 0.0
            if np.any(b):
                kept[l] = b
        if self.real:
            keys = set(kept) | {-l for l in kept}
            sym = {}
            for l in keys:
                b = kept.get(l)
                mirror = kept.get(-l)
                flipped = np.conj(mirror[::-1, ::-1]) if mirror is not None else 0.0
                here = b if b is not None else 0.0
                sym[l] = 0.5 * (here + flipped)
            kept = {l: b for l, b in sym.items() if np.any(b)}
        order = sorted(kept, key=lambda l: enum.index_of[l])
        return {l: kept[l] for l in order}

    # -- linear structure ---------------------------------------------------

    def _check_compat(self, other):
        if self.lattice != other.lattice or self.jmax != other.jmax:
            raise ValueError("incompatible operator truncations")

    def _merge_omega(self, other, subtract=False):
        if self.omega is None and other.omega is None:
            return None
        if self.omega is not None and other.omega is not None:
            if subtract and np.array_equal(self.omega, other.omega):
                return None
            raise ValueError("cannot combine two omega.d_phi parts")
        if subtract and other.omega is not None:
            raise ValueError("cannot negate an omega.d_phi part by subtraction")
        return self.omega if self.omega is not None else other.omega

    def __add__(self, other):
        self._check_compat(other)
        out = {l: b.copy() for l, b in self.blocks.items()}
        for l, b in other.blocks.items():
            out[l] = out.get(l, 0.0) + b
        return OperatorMatrix(
            self.lattice, self.jmax, out,
            omega=self._merge_omega(other), real=self.real and other.real,
        )

    def __sub__(self, other):
        self._check_compat(other)
        out = {l: b.copy() for l, b in self.blocks.items()}
        for l, b in other.blocks.items():
            out[l] = out.get(l, 0.0) - b
        return OperatorMatrix(
            self.lattice, self.jmax, out,
            omega=self._merge_omega(other, subtract=True),
            real=self.real and other.real,
        )

    def __mul__(self, scalar):
        s = complex(scalar)
        if self.omega is not None and s != 1.0:
            raise ValueError("cannot scale an operator containing omega.d_phi")
        real = self.real and s.imag == 0.0
        return OperatorMatrix(
            self.lattice, self.jmax, {l: s * b for l, b in self.blocks.items()},
            omega=self.omega, real=real,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __matmul__(self, other):
        return compose(self, other)

    def convolution_part(self) -> "OperatorMatrix":
        """The same operator with the omega.d_phi term stripped."""
        return OperatorMatrix(self.lattice, self.jmax, dict(self.blocks), real=self.real)

    def max_entry(self) -> float:
        return max((float(np.max(np.abs(b))) for b in self.blocks.values()), default=0.0)

    def __repr__(self):
        tag = ", +omega.d_phi" if self.omega is not None else ""
        return f"OperatorMatrix(jmax={self.jmax}, blocks={len(self.blocks)}{tag})"


def identity_op(lattice, jmax) -> OperatorMatrix:
    nj = 2 * jmax + 1
    b = np.eye(nj, dtype=complex)
    return OperatorMatrix(lattice, jmax, {MultiIndex.zero(): b})


def x_symbol_op(lattice, jmax, symbol) -> OperatorMatrix:
    """Fourier multiplier in x: diagonal entries symbol(j) for j != 0."""
    nj = 2 * jmax + 1
    d = np.zeros(nj, dtype=complex)
    for j in range(-jmax, jmax + 1):
        if j != 0:
            d[j + jmax] = symbol(j)
    return OperatorMatrix(lattice, jmax, {MultiIndex.zero(): np.diag(d)})


def dx_op(lattice, jmax, order=1) -> OperatorMatrix:
    return x_symbol_op(lattice, jmax, lambda j: (1j * j) ** order)


def dx_inv_op(lattice, jmax) -> OperatorMatrix:
    return x_symbol_op(lattice, jmax, lambda j: 1.0 / (1j * j))


def mult_op(a: AnalyticFunction) -> OperatorMatrix:
    """Multiplication by a(phi, x), restricted to zero-average functions."""
    jmax = a.jmax
    nj = 2 * jmax + 1
    blocks = {}
    jj = np.arange(-jmax, jmax + 1)
    for (l, m), c in a.coeffs.items():
        b = blocks.setdefault(l, np.zeros((nj, nj), dtype=complex))
        jp = jj[np.abs(jj + m) <= jmax]
        b[jp + m + jmax, jp + jmax] += c
    return OperatorMatrix(a.lattice, jmax, blocks, real=a.real)


def smoothing_generator_op(g: AnalyticFunction) -> OperatorMatrix:
    """The order -1 generator pi0_perp g(phi, x) dx^{-1}."""
    jmax = g.jmax
    nj = 2 * jmax + 1
    blocks = {}
    jj = np.arange(-jmax, jmax + 1)
    jnz = jj[jj != 0]
    for (l, m), c in g.coeffs.items():
        b = blocks.setdefault(l, np.zeros((nj, nj), dtype=complex))
        jp = jnz[np.abs(jnz + m) <= jmax]
        b[jp + m + jmax, jp + jmax] += c / (1j * jp)
    return OperatorMatrix(g.lattice, jmax, blocks, real=g.real)


def op_norm(R: OperatorMatrix, sigma: float, m: float = 0.0) -> float:
    """Decay norm sum_l e^{sigma |l|_eta} sup_{j'} sum_j e^{sigma |j-j'|} |R(l)[j,j']| |j'|^{-m}."""
    if R.omega is not None:
        raise ValueError("op_norm is defined for the bounded (convolution) part only")
    jmax = R.jmax
    jj = np.arange(-jmax, jmax + 1)
    W = np.exp(sigma * np.abs(jj[:, None] - jj[None, :]))
    absj = np.abs(jj).astype(float)
    absj[jmax] = 1.0
    colw = absj ** (-float(m)) if m else np.ones_like(absj)
    colw[jmax] = 0.0
    eta = R.lattice.eta
    total = 0.0
    for l, b in R.blocks.items():
        cols = (W * np.abs(b)).sum(axis=0) * colw
        total += math.exp(sigma * (eta_norm(l, eta) if l else 0.0)) * float(cols.max())
    return total


def restrict(R: OperatorMatrix, jwin: int, lwin: float) -> OperatorMatrix:
    """Zero out rows/columns with |j| > jwin and drop blocks |l|_eta > lwin."""
    jmax = R.jmax
    jj = np.arange(-jmax, jmax + 1)
    keep = np.abs(jj) <= jwin
    mask = np.outer(keep, keep)
    eta = R.lattice.eta
    blocks = {}
    for l, b in R.blocks.items():
        if l and eta_norm(l, eta) > lwin + 1e-12:
            continue
        blocks[l] = b * mask
    return OperatorMatrix(R.lattice, R.jmax, blocks, omega=R.omega, real=R.real)


def apply_op(R: OperatorMatrix, u: AnalyticFunction) -> AnalyticFunction:
    """Apply the operator to a function (its j = 0 column is ignored)."""
    if R.lattice != u.lattice or R.jmax != u.jmax:
        raise ValueError("incompatible truncations")
    enum = get_enumeration(u.lattice)
    jmax = u.jmax
    nj = 2 * jmax + 1
    groups = {}
    for (l, j), c in u.coeffs.items():
        if j == 0:
            continue
        groups.setdefault(l, np.zeros(nj, dtype=complex))[j + jmax] = c
    out = {}
    for ld, b in R.blocks.items():
        for lp, vec in groups.items():
            lo = ld + lp
            if lo in enum.index_of:
                acc = out.setdefault(lo, np.zeros(nj, dtype=complex))
                acc += b @ vec
    coeffs = {}
    for lo in sorted(out, key=lambda l: enum.index_of[l]):
        vec = out[lo]
        nz = np.nonzero(vec)[0]
        for k in nz:
            coeffs[(lo, int(k) - jmax)] = vec[k]
    result = AnalyticFunction(u.lattice, u.jmax, coeffs, real=R.real and u.real)
    if R.omega is not None:
        result = result + om_dphi(u, R.omega)
    return result


def compose(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """Block-convolution product A B (both must be pure convolution operators)."""
    A._check_compat(B)
    if A.omega is not None or B.omega is not None:
        raise ValueError("compose requires bounded operators; handle omega.d_phi structurally")
    enum = get_enumeration(A.lattice)
    out = {}
    for la, ba in A.blocks.items():
        for lb, bb in B.blocks.items():
            lo = la + lb
            if lo in enum.index_of:
                acc = out.get(lo)
                prod = ba @ bb
                out[lo] = prod if acc is None else acc + prod
    return OperatorMatrix(A.lattice, A.jmax, out, real=A.real and B.real)


def commutator(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """[A, B] = A B - B A."""
    return compose(A, B) - compose(B, A)


def ad_power(A: OperatorMatrix, B: OperatorMatrix, k: int) -> OperatorMatrix:
    """Iterated adjoint Ad_A^k(B) with Ad_A(B) = [B, A]; k = 0 returns B."""
    X = B
    for _ in range(int(k)):
        X = commutator(X, A)
    return X


def phi_derivative(R: OperatorMatrix, omega) -> OperatorMatrix:
    """Derivative of the coefficients along omega: blocks scaled by i (omega.l)."""
    om = np.asarray(omega, dtype=float)
    m = R.lattice.M
    blocks = {}
    for l, b in R.blocks.items():
        if l:
            blocks[l] = (1j * float(np.dot(l.dense(m), om))) * b
    return OperatorMatrix(R.lattice, R.jmax, blocks, real=R.real)


# -- structured differential operators ---------------------------------------


@dataclass
class DifferentialOperator:
    """omega.d_phi + lambda3 dx^3 + B dx + C, kept structured until materialized."""

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

    def lambda1(self, tol=1e-8):
        """x-average of B, which must be phi-independent up to tol."""
        avg = pi0(self.B)
        const = complex(avg.get(MultiIndex.zero(), 0))
        rest = (avg - AnalyticFunction.constant(self.B.lattice, self.B.jmax, const)).norm(0.0)
        scale = max(1.0, abs(const))
        if rest > tol * scale:
            raise ValueError(f"x-average of B varies with phi (norm {rest:.3e})")
        return float(const.real)

    def apply(self, u: AnalyticFunction) -> AnalyticFunction:
        """Structured application, projected back to zero x-average."""
        out = om_dphi(u, self.omega) + self.lambda3 * dx(u, 3)
        if self.B.coeffs:
            out = out + multiply(self.B, dx(u, 1))
        if self.C.coeffs:
            out = out + multiply(self.C, u)
        return pi0_perp(out)


def materialize(L: DifferentialOperator) -> OperatorMatrix:
    """Basis representation of L; carries the omega.d_phi part structurally."""
    lat, jmax = L.lattice, L.jmax
    airy = x_symbol_op(lat, jmax, lambda j: -1j * L.lambda3 * j**3)
    out = airy
    if L.B.coeffs:
        out = out + compose(mult_op(L.B), dx_op(lat, jmax))
    if L.C.coeffs:
        out = out + mult_op(L.C)
    return OperatorMatrix(lat, jmax, out.blocks, omega=L.omega, real=out.real)


# -- exponential series -------------------------------------------------------


def _series_guard(norms, k, tol, scale):
    """Ratio-test stop/divergence decision for a term-norm history."""
    if norms[-1] <= tol * max(1.0, scale):
        return "done"
    if k >= 6 and norms[-1] >= norms[-2] >= norms[-3]:
        raise SeriesDivergenceError(
            f"exponential series terms stopped decreasing at k={k} (norm {norms[-1]:.3e})"
        )
    return "continue"


def lie_series(G: OperatorMatrix, X: OperatorMatrix, tol=1e-14, max_terms=MAX_SERIES_TERMS,
               start_factor=1):
    """sum_{k>=0} Ad_G^k(X) / (k + start_factor)!, with Ad_G(X) = [X, G].

    With start_factor=0 this is e^{-G} X e^{G} = X + [X,G] + [[X,G],G]/2! + ...;
    with start_factor=1 it is X + [X,G]/2! + ... = the series such that
    e^{-G} (omega.d_phi) e^{G} = omega.d_phi + lie_series(G, phi_derivative(G)).
    Returns (sum, terms_used).
    """
    lead = 1.0 / math.factorial(start_factor)
    term = X if lead == 1.0 else X * lead   # a unit factor needs no scaled copy of X
    total = term
    norms = [op_norm(term, 0.0)]
    scale = norms[0]
    for k in range(1, max_terms + 1):
        term = commutator(term, G) * (1.0 / (k + start_factor))
        total = total + term
        norms.append(op_norm(term, 0.0))
        state = _series_guard(norms, k, tol, scale)
        if state == "done":
            return total, k + 1
    raise SeriesDivergenceError(f"series did not reach tol={tol} in {max_terms} terms")


def exp_conjugate(G: OperatorMatrix, B: OperatorMatrix, tol=1e-14,
                  max_terms=MAX_SERIES_TERMS) -> OperatorMatrix:
    """e^{-G} B e^{G} with the tail bounded below tol by the ratio test.

    B may include omega.d_phi; G must be a bounded generator.
    """
    if G.omega is not None:
        raise ValueError("generator must be a bounded operator")
    if B.omega is not None:
        conv = exp_conjugate(G, B.convolution_part(), tol=tol, max_terms=max_terms)
        gdot = phi_derivative(G, B.omega)
        extra, terms = lie_series(G, gdot, tol=tol, max_terms=max_terms)
        log.debug("exp_conjugate omega-part used %d terms", terms)
        out = conv + extra
        return OperatorMatrix(out.lattice, out.jmax, out.blocks, omega=B.omega, real=out.real)
    if not G.blocks:
        return B
    return lie_series(G, B, tol=tol, max_terms=max_terms, start_factor=0)[0]


def exp_apply(G: OperatorMatrix, u: AnalyticFunction, tol=1e-14,
              max_terms=MAX_SERIES_TERMS) -> AnalyticFunction:
    """e^{G} u as a truncated series."""
    if G.omega is not None:
        raise ValueError("generator must be a bounded operator")
    term = u
    total = u
    norms = [u.norm(0.0)]
    scale = norms[0]
    if scale == 0.0 or not G.blocks:
        return u
    for k in range(1, max_terms + 1):
        term = apply_op(G, term) * (1.0 / k)
        total = total + term
        norms.append(term.norm(0.0))
        if _series_guard(norms, k, tol, scale) == "done":
            return total
    raise SeriesDivergenceError(f"flow series did not converge in {max_terms} terms")


def dx3_commutator(g: AnalyticFunction):
    """Closed form of [dx^3, pi0_perp g dx^{-1}] = mult(3 g_x) dx + remainder.

    Returns (3 g_x, remainder) with remainder = pi0_perp(3 g_xx + g_xxx dx^{-1});
    on the zero-average basis the pi0(g_x dx) piece has no matrix entries.
    """
    if not g.zero_x_average:
        raise ValueError("generator amplitude must have zero x-average")
    leading = 3.0 * dx(g, 1)
    rem = mult_op(3.0 * dx(g, 2)) + compose(mult_op(dx(g, 3)), dx_inv_op(g.lattice, g.jmax))
    return leading, rem


# -- dense helpers (small truncations, oracles, direct solves) ----------------


def dense_labels(lattice, jmax):
    """Basis order for to_dense: lattice index major, then j skipping 0."""
    enum = get_enumeration(lattice)
    jlist = [j for j in range(-jmax, jmax + 1) if j != 0]
    return [(l, j) for l in enum.indices for j in jlist], jlist


def to_dense(R: OperatorMatrix) -> np.ndarray:
    """Full matrix over (l, j != 0); includes i (omega.l) on the diagonal if set."""
    enum = get_enumeration(R.lattice)
    jmax = R.jmax
    labels, jlist = dense_labels(R.lattice, jmax)
    nj = len(jlist)
    n = enum.size * nj
    jslots = np.array(jlist) + jmax
    M = np.zeros((n, n), dtype=complex)
    for ld, b in R.blocks.items():
        sub = b[np.ix_(jslots, jslots)]
        for q, lp in enumerate(enum.indices):
            lo = ld + lp
            p = enum.index_of.get(lo)
            if p is not None:
                M[p * nj:(p + 1) * nj, q * nj:(q + 1) * nj] += sub
    if R.omega is not None:
        dots = enum.dots(R.omega)
        diag = np.repeat(1j * dots, nj)
        M[np.arange(n), np.arange(n)] += diag
    return M
