"""Truncated analytic functions on the product torus (phi, x).

A function is a Fourier series sum c(l, j) e^{i l.phi + i j x} with l on the
truncated frequency lattice and |j| <= jmax.  The weighted norm
sum e^{sigma(|l|_eta + |j|)} |c(l, j)| measures analyticity in a strip of
width sigma, shared between the phi and x directions.

Storage is one complex array ``data`` of shape (enum.size, 2*jmax+1): row p
holds the coefficients of the p-th multi-index of the lattice enumeration
(``lattice.get_enumeration``), column j + jmax the x-mode j.  The canonical
coefficient order is the array order.  ``MultiIndex`` appears only at the
boundary: the dict constructor, ``get``, the read-only ``coeffs`` view and
serialization.

Every function is real-on-real: c(l, j) = conj(c(-l, -j)).  Each
constructor enforces the identity by exact symmetrization, so it holds bit
for bit, and a scalar with a nonzero imaginary part is refused.

``multiply`` takes one of two paths, each truncating the product to the
common lattice and jmax.  The direct path sums the nonzero coefficient pairs
of the canonical half (``_accel.convolve_into``).  A product whose pairs
outnumber ``GRID_COST`` times the points of its alias-free grid is formed on
that grid by the convolution theorem (``_accel.grid_product``), and its
coefficients at or below ``NOISE_FLOOR`` times the largest, rounding noise,
are dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._accel import NOISE_FLOOR, convolve_into, grid_product, next_fast_len
from .errors import SmallDivisorError
from .lattice import LatticeParams, MultiIndex, get_enumeration

__all__ = [
    "AnalyticFunction",
    "ScalarSeries",
    "multiply",
    "dx",
    "dx_inv",
    "om_dphi",
    "om_dphi_inv",
    "pi0",
    "pi0_perp",
    "project_N",
    "project_N_perp",
    "mean_phi_x",
    "to_payload",
    "from_payload",
]


# The cost of one point of multiply's grid path, in coefficient pairs of its
# direct path.  Replaying every multiply of solve_m2 (341 calls) and solve_m3
# (673) at omega seed 7 (CPU time on a 2-core Xeon, one BLAS thread, best of
# 7 interleaved), the products with 2-3 pairs a point took 0.026 s on either
# path, and those with 3-4 pairs 0.029 s direct against 0.023 s on the grid
# on solve_m2 and 0.080 against 0.089 s on solve_m3 (0.083 against 0.077 s
# in another replay: a tie).  In all, 2, 3 and 4 gave 0.203, 0.204 and
# 0.210 s on solve_m2 (direct only: 0.424 s) and 0.413, 0.413 and 0.404 s on
# solve_m3 (0.404 s).
GRID_COST = 3

# multiply drops the coefficients at or below PRUNE_REL |u|_0 |v|_0, and
# opalg.compose, unless its caller passes a budget, the block pairs whose norm
# bounds sum to at most PRUNE_REL |A| |B|: that keeps supports sparse and moves
# a product far less than any verification tolerance.
PRUNE_REL = 1e-18


def _zero_data(lattice, jmax) -> np.ndarray:
    return np.zeros((get_enumeration(lattice).size, 2 * int(jmax) + 1), dtype=complex)


def _real_scalar(value) -> complex:
    """``value`` as a complex number; a nonzero imaginary part raises a ValueError."""
    z = complex(value)
    if z.imag != 0.0:
        raise ValueError(f"functions are real-on-real: scalar {value!r} is not real")
    return z


class AnalyticFunction:
    """Truncated Fourier series on the enumerated lattice; immutable by convention."""

    __slots__ = ("lattice", "jmax", "data")

    def __init__(self, lattice: LatticeParams, jmax: int, coeffs=None):
        """Build from a dict {(MultiIndex, j): c}; entries outside the truncation are dropped."""
        if jmax < 0:
            raise ValueError("jmax must be >= 0")
        index_of = get_enumeration(lattice).index_of
        data = _zero_data(lattice, jmax)
        for (l, j), c in (coeffs or {}).items():
            p = index_of.get(l)
            if p is not None and abs(j) <= jmax:
                data[p, j + jmax] = c
        self._set(lattice, jmax, data)

    def _set(self, lattice, jmax, data):
        self.lattice = lattice
        self.jmax = int(jmax)
        mirror = data[get_enumeration(lattice).neg, ::-1]
        self.data = 0.5 * (data + np.conj(mirror))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_array(cls, lattice, jmax, data):
        """The symmetrization of a (enum.size, 2*jmax+1) coefficient array, a new array."""
        out = cls.__new__(cls)
        out._set(lattice, jmax, data)
        return out

    @classmethod
    def zeros(cls, lattice, jmax):
        return cls.from_array(lattice, jmax, _zero_data(lattice, jmax))

    @classmethod
    def constant(cls, lattice, jmax, value):
        """The constant ``value``, which must be real."""
        data = _zero_data(lattice, jmax)
        data[0, jmax] = _real_scalar(value)
        return cls.from_array(lattice, jmax, data)

    @classmethod
    def from_modes(cls, lattice, jmax, modes):
        """Build from an iterable of (MultiIndex, j, amplitude).

        The conjugate modes are filled in automatically, so ``[(l, j, a)]``
        yields a e^{i(l.phi+jx)} + conj(a) e^{-i(l.phi+jx)}.
        The self-conjugate mode (0, 0) is not doubled: it yields Re(a), so 1.2
        gives the constant 1.2 (a config entry for that mode gives 2 Re(a)).
        """
        coeffs = {}
        for l, j, a in modes:
            coeffs[(l, j)] = coeffs.get((l, j), 0.0) + complex(a)
            if (l, j) != (-l, -j):
                key = (-l, -j)
                coeffs[key] = coeffs.get(key, 0.0) + np.conj(complex(a))
        return cls(lattice, jmax, coeffs)

    # -- basic accessors ---------------------------------------------------

    @property
    def coeffs(self):
        """Read-only {(MultiIndex, j): c} of the nonzero coefficients, in canonical order."""
        indices = get_enumeration(self.lattice).indices
        rows, cols = np.nonzero(self.data)
        vals = self.data[rows, cols].tolist()
        return MappingProxyType({
            (indices[p], j - self.jmax): c
            for p, j, c in zip(rows.tolist(), cols.tolist(), vals)
        })

    def get(self, l, j):
        p = get_enumeration(self.lattice).index_of.get(l)
        if p is None or abs(j) > self.jmax:
            return 0j
        return complex(self.data[p, j + self.jmax])

    def is_zero(self) -> bool:
        return not self.data.any()

    @property
    def zero_x_average(self) -> bool:
        return not self.data[:, self.jmax].any()

    @property
    def phi_only(self) -> bool:
        return not (self.data[:, :self.jmax].any() or self.data[:, self.jmax + 1:].any())

    def norm(self, sigma: float) -> float:
        """Strip norm sum e^{sigma(|l|_eta + |j|)} |c(l, j)|."""
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        size = np.abs(self.data)
        if sigma:
            absj = np.abs(np.arange(-self.jmax, self.jmax + 1))
            norms = get_enumeration(self.lattice).eta_norms
            size = size * np.exp(sigma * (norms[:, None] + absj[None, :]))
        return float(size.sum())

    def restrict(self, jmax: int) -> "AnalyticFunction":
        """The x-modes |j| <= jmax of u, for jmax <= u.jmax: a column slice."""
        jmax = int(jmax)
        if not 0 <= jmax <= self.jmax:
            raise ValueError(f"cannot restrict jmax {self.jmax} to {jmax}")
        if jmax == self.jmax:
            return self
        lo = self.jmax - jmax
        return AnalyticFunction.from_array(self.lattice, jmax,
                                           self.data[:, lo:lo + 2 * jmax + 1])

    def embed(self, jmax: int) -> "AnalyticFunction":
        """u on the wider x-truncation jmax >= u.jmax: zero-padded columns."""
        jmax = int(jmax)
        if jmax < self.jmax:
            raise ValueError(f"cannot embed jmax {self.jmax} in {jmax}")
        if jmax == self.jmax:
            return self
        data = _zero_data(self.lattice, jmax)
        data[:, jmax - self.jmax:jmax + self.jmax + 1] = self.data
        return AnalyticFunction.from_array(self.lattice, jmax, data)

    # -- linear structure ---------------------------------------------------

    def _check_compat(self, other):
        if self.lattice != other.lattice or self.jmax != other.jmax:
            raise ValueError("incompatible truncations")

    def _like(self, data):
        return AnalyticFunction.from_array(self.lattice, self.jmax, data)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = AnalyticFunction.constant(self.lattice, self.jmax, other)
        self._check_compat(other)
        return self._like(self.data + other.data)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.data)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = AnalyticFunction.constant(self.lattice, self.jmax, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if isinstance(scalar, AnalyticFunction):
            return multiply(self, scalar)
        return self._like(self.data * _real_scalar(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"AnalyticFunction(M={self.lattice.M}, K={self.lattice.K}, "
            f"jmax={self.jmax}, modes={np.count_nonzero(self.data)})"
        )


def _product_grid(u: AnalyticFunction, v: AnalyticFunction):
    """The grid on which ``multiply`` forms u v, or None for the direct path.

    A product takes the grid when its nonzero coefficient pairs outnumber
    ``GRID_COST`` times the grid's points.  The grid is alias-free:
    next_fast_len(3 b + 1) points on a phi axis whose lattice indices stay
    within |l_s| <= b, and next_fast_len(3 jmax + 1) on x.
    """
    bounds = get_enumeration(u.lattice).bounds + (u.jmax,)
    sizes = tuple(next_fast_len(3 * b + 1) for b in bounds)
    pairs = np.count_nonzero(u.data) * np.count_nonzero(v.data)
    return sizes if pairs > GRID_COST * math.prod(sizes) else None


def multiply(u: AnalyticFunction, v: AnalyticFunction) -> AnalyticFunction:
    """Spectral product, truncated back to the common lattice and jmax.

    A product with more than ``GRID_COST`` nonzero coefficient pairs a point
    of its grid (``_product_grid``) is formed on that grid by
    ``_accel.grid_product``.  It gives the x-modes j >= 0 of every lattice
    row; the modes j < 0, and the mode j = 0 of each row outside the
    canonical half, are filled from their conjugate modes, and the
    coefficients at or below ``NOISE_FLOOR`` times the largest are dropped.

    Every other product is the direct sparse convolution over the nonzero
    coefficient pairs (``_accel.convolve_into``).  It sums only the canonical
    half, as in ``opalg.compose``: pairs whose target row p lies outside the
    half (p > neg[p]) are dropped, and each such mirror row is filled as the
    conjugate of row neg[p], reversed in j.  Row 0 is its own mirror and is
    summed in full.

    On both paths, entries at or below ``PRUNE_REL * |u|_0 |v|_0`` are
    dropped.
    """
    u._check_compat(v)
    if u.is_zero() or v.is_zero():
        return AnalyticFunction.zeros(u.lattice, u.jmax)
    enum = get_enumeration(u.lattice)
    mirror = ~enum.half[:-1]
    floor = PRUNE_REL * u.norm(0.0) * v.norm(0.0)
    sizes = _product_grid(u, v)
    if sizes is not None:
        jmax = u.jmax
        cells = tuple(enum.dense[:, s] % n for s, n in enumerate(sizes[:-1]))
        out = np.empty(u.data.shape, dtype=complex)
        out[:, jmax:] = grid_product(u.data[:, jmax:], v.data[:, jmax:], cells, sizes)
        out[mirror, jmax] = np.conj(out[enum.neg[mirror], jmax])
        out[:, :jmax] = np.conj(out[enum.neg, :jmax:-1])
        floor = max(floor, NOISE_FLOOR * float(np.abs(out).max()))
    else:
        conv = enum.conv_table()
        # a target outside the canonical half maps to -1, like one outside the lattice
        conv = np.where(enum.half[conv], conv, -1)
        ia, ja = np.nonzero(u.data)
        ib, jb = np.nonzero(v.data)
        out = np.zeros(u.data.shape, dtype=complex)
        convolve_into(ia, ja - u.jmax, u.data[ia, ja], ib, jb - v.jmax, v.data[ib, jb],
                      conv, u.jmax, out)
        out[mirror] = np.conj(out[enum.neg[mirror], ::-1])
    out[np.abs(out) <= floor] = 0.0
    return u._like(out)


def _j_axis(u: AnalyticFunction) -> np.ndarray:
    return np.arange(-u.jmax, u.jmax + 1)


def dx(u: AnalyticFunction, order: int = 1) -> AnalyticFunction:
    """Spatial derivative: c(l, j) -> (i j)^order c(l, j)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return u._like(u.data * (1j * _j_axis(u)) ** order)


def dx_inv(u: AnalyticFunction) -> AnalyticFunction:
    """Zero-average spatial antiderivative; rejects nonzero x-average input."""
    if not u.zero_x_average:
        raise ValueError("dx_inv requires zero x-average")
    jj = _j_axis(u)
    out = np.zeros_like(u.data)
    np.divide(u.data, 1j * jj, out=out, where=(jj != 0)[None, :])
    return u._like(out)


def om_dphi(u: AnalyticFunction, omega) -> AnalyticFunction:
    """Directional derivative along the frequency vector: c -> i (omega.l) c."""
    dots = get_enumeration(u.lattice).dots(omega)
    return u._like(u.data * (1j * dots)[:, None])


def om_dphi_inv(u: AnalyticFunction, omega, gamma: float) -> AnalyticFunction:
    """Solve omega.d_phi h = u for zero-phi-average u.

    Divisors |omega.l| are required to exceed the Diophantine floor
    gamma * prod 1/(1 + l_i^2 i^2); a breach raises SmallDivisorError naming
    the first offending index in canonical order.  Divisors are never
    regularized.
    """
    enum = get_enumeration(u.lattice)
    if np.any(np.abs(u.data[0]) > 1e-13 * u.norm(0.0)):
        raise ValueError("om_dphi_inv requires zero phi-average")
    div = enum.dots(omega)[1:]
    floor = gamma * enum.dioph[1:]
    used = u.data[1:].any(axis=1)
    breach = np.flatnonzero(used & (np.abs(div) <= floor))
    if breach.size:
        p = breach[0]
        l = enum.indices[p + 1]
        raise SmallDivisorError(
            f"divisor |omega.l| = {abs(div[p]):.3e} under floor {floor[p]:.3e} at l={l!r}",
            l=l, divisor=float(div[p]), floor=float(floor[p]),
        )
    out = np.zeros_like(u.data)
    out[1:] = u.data[1:] / (1j * div)[:, None]
    return u._like(out)


def _masked(u: AnalyticFunction, rows=True, cols=True) -> AnalyticFunction:
    """u with the coefficients outside the lattice-row and x-mode masks set to zero."""
    keep = np.logical_and(np.reshape(rows, (-1, 1)), np.reshape(cols, (1, -1)))
    return u._like(np.where(keep, u.data, 0.0))


def pi0(u: AnalyticFunction) -> AnalyticFunction:
    """x-average: keep only the j = 0 column (a function of phi)."""
    return _masked(u, cols=_j_axis(u) == 0)


def pi0_perp(u: AnalyticFunction) -> AnalyticFunction:
    return _masked(u, cols=_j_axis(u) != 0)


def project_N(u: AnalyticFunction, N: float) -> AnalyticFunction:
    """Keep modes with |l|_eta <= N."""
    return _masked(u, rows=get_enumeration(u.lattice).within(N))


def project_N_perp(u: AnalyticFunction, N: float) -> AnalyticFunction:
    return _masked(u, rows=~get_enumeration(u.lattice).within(N))


def mean_phi_x(u: AnalyticFunction) -> complex:
    """Joint average over phi and x, i.e. the (0, 0) coefficient."""
    return complex(u.data[0, u.jmax])


# -- serialization ----------------------------------------------------------


def to_payload(u: AnalyticFunction) -> dict:
    """JSON-ready document; floats round-trip exactly through json."""
    entries = [
        [[list(p) for p in l.pairs()], j, c.real, c.imag]
        for (l, j), c in u.coeffs.items()
    ]
    return {
        "lattice": {"eta": u.lattice.eta, "M": u.lattice.M, "K": u.lattice.K},
        "jmax": u.jmax,
        "real": True,
        "zero_x_average": u.zero_x_average,
        "entries": entries,
    }


def from_payload(doc: dict) -> AnalyticFunction:
    if not doc["real"]:
        raise ValueError("functions are real-on-real: the payload is not")
    lat = LatticeParams(doc["lattice"]["eta"], doc["lattice"]["M"], doc["lattice"]["K"])
    coeffs = {}
    for pairs, j, re, im in doc["entries"]:
        l = MultiIndex.from_pairs([(int(s), int(v)) for s, v in pairs])
        coeffs[(l, int(j))] = complex(re, im)
    return AnalyticFunction(lat, int(doc["jmax"]), coeffs)


def dumps(u: AnalyticFunction) -> str:
    return json.dumps(to_payload(u), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> AnalyticFunction:
    return from_payload(json.loads(text))


@dataclass(frozen=True)
class ScalarSeries:
    """Descriptor of an analytic scalar map z -> fn(z) valid for |z| < radius."""

    fn: object
    radius: float
    label: str = ""

