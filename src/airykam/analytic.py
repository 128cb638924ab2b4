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

Real-on-real functions satisfy c(l, j) = conj(c(-l, -j)); the flag is
enforced by exact symmetrization so the residual of that identity is zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._accel import convolve_into
from .errors import SmallDivisorError
from .lattice import LatticeParams, MultiIndex, get_enumeration

__all__ = [
    "AnalyticFunction",
    "ScalarSeries",
    "norm",
    "multiply",
    "dx",
    "dx_inv",
    "om_dphi",
    "om_dphi_inv",
    "pi0",
    "pi0_perp",
    "project_N",
    "project_N_perp",
    "phi_average",
    "mean_phi_x",
    "lipschitz_norm",
    "compose_x_diffeo",
    "compose_phi_shift",
    "compose_x_translation",
    "invert_x_diffeo",
    "invert_phi_shift",
    "moser_compose",
    "substitute",
    "substitute_inverse",
    "to_payload",
    "from_payload",
]


def _zero_data(lattice, jmax) -> np.ndarray:
    return np.zeros((get_enumeration(lattice).size, 2 * int(jmax) + 1), dtype=complex)


class AnalyticFunction:
    """Truncated Fourier series on the enumerated lattice; immutable by convention."""

    __slots__ = ("lattice", "jmax", "data", "real")

    def __init__(self, lattice: LatticeParams, jmax: int, coeffs=None, real=True):
        """Build from a dict {(MultiIndex, j): c}; entries outside the truncation are dropped."""
        if jmax < 0:
            raise ValueError("jmax must be >= 0")
        index_of = get_enumeration(lattice).index_of
        data = _zero_data(lattice, jmax)
        for (l, j), c in (coeffs or {}).items():
            p = index_of.get(l)
            if p is not None and abs(j) <= jmax:
                data[p, j + jmax] = c
        self._set(lattice, jmax, data, real)

    def _set(self, lattice, jmax, data, real):
        self.lattice = lattice
        self.jmax = int(jmax)
        self.real = bool(real)
        if self.real:
            mirror = data[get_enumeration(lattice).neg, ::-1]
            data = 0.5 * (data + np.conj(mirror))
        self.data = data

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_array(cls, lattice, jmax, data, real=True):
        """Wrap a (enum.size, 2*jmax+1) coefficient array; it is not copied unless real."""
        out = cls.__new__(cls)
        out._set(lattice, jmax, data, real)
        return out

    @classmethod
    def zeros(cls, lattice, jmax, real=True):
        return cls.from_array(lattice, jmax, _zero_data(lattice, jmax), real)

    @classmethod
    def constant(cls, lattice, jmax, value, real=None):
        real = (abs(complex(value).imag) == 0.0) if real is None else real
        data = _zero_data(lattice, jmax)
        data[0, jmax] = value
        return cls.from_array(lattice, jmax, data, real)

    @classmethod
    def from_modes(cls, lattice, jmax, modes, real=True):
        """Build from an iterable of (MultiIndex, j, amplitude).

        With ``real=True`` the conjugate modes are filled in automatically,
        so ``[(l, j, a)]`` yields a e^{i(l.phi+jx)} + conj(a) e^{-i(l.phi+jx)}.
        The self-conjugate mode (0, 0) is not doubled: it yields Re(a), so 1.2
        gives the constant 1.2 (a config entry for that mode gives 2 Re(a)).
        """
        coeffs = {}
        for l, j, a in modes:
            coeffs[(l, j)] = coeffs.get((l, j), 0.0) + complex(a)
            if real and (l, j) != (-l, -j):
                key = (-l, -j)
                coeffs[key] = coeffs.get(key, 0.0) + np.conj(complex(a))
        return cls(lattice, jmax, coeffs, real=real)

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
                                           self.data[:, lo:lo + 2 * jmax + 1].copy(), self.real)

    def embed(self, jmax: int) -> "AnalyticFunction":
        """u on the wider x-truncation jmax >= u.jmax: zero-padded columns."""
        jmax = int(jmax)
        if jmax < self.jmax:
            raise ValueError(f"cannot embed jmax {self.jmax} in {jmax}")
        if jmax == self.jmax:
            return self
        data = _zero_data(self.lattice, jmax)
        data[:, jmax - self.jmax:jmax + self.jmax + 1] = self.data
        return AnalyticFunction.from_array(self.lattice, jmax, data, self.real)

    def conjugate_symmetry_residual(self) -> float:
        """Max |c(l,j) - conj(c(-l,-j))|; zero for enforced real functions."""
        mirror = self.data[get_enumeration(self.lattice).neg, ::-1]
        return float(np.max(np.abs(self.data - np.conj(mirror)), initial=0.0))

    # -- linear structure ---------------------------------------------------

    def _check_compat(self, other):
        if self.lattice != other.lattice or self.jmax != other.jmax:
            raise ValueError("incompatible truncations")

    def _like(self, data, real):
        return AnalyticFunction.from_array(self.lattice, self.jmax, data, real)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = AnalyticFunction.constant(self.lattice, self.jmax, other)
        self._check_compat(other)
        return self._like(self.data + other.data, self.real and other.real)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.data, self.real)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = AnalyticFunction.constant(self.lattice, self.jmax, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if isinstance(scalar, AnalyticFunction):
            return multiply(self, scalar)
        s = complex(scalar)
        return self._like(self.data * s, self.real and s.imag == 0.0)

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"AnalyticFunction(M={self.lattice.M}, K={self.lattice.K}, "
            f"jmax={self.jmax}, modes={np.count_nonzero(self.data)})"
        )


def norm(u: AnalyticFunction, sigma: float) -> float:
    return u.norm(sigma)


def multiply(u: AnalyticFunction, v: AnalyticFunction, prune_rel: float = 1e-18) -> AnalyticFunction:
    """Spectral product, truncated back to the common lattice and jmax.

    Direct sparse convolution over nonzero coefficient pairs; entries below
    ``prune_rel * |u|_0 |v|_0`` are dropped (that floor keeps supports sparse
    and perturbs the product by far less than any verification tolerance).

    A product of two real functions is real, so only its canonical half is
    summed, as in ``opalg.compose``: pairs whose target row p lies outside
    the half (p > neg[p]) are dropped, and each such mirror row is filled as
    the conjugate of row neg[p], reversed in j.  Row 0 is its own mirror and
    is summed in full.
    """
    u._check_compat(v)
    real = u.real and v.real
    if u.is_zero() or v.is_zero():
        return AnalyticFunction.zeros(u.lattice, u.jmax, real=real)
    enum = get_enumeration(u.lattice)
    conv = enum.conv_table()
    if real:
        # a target outside the canonical half maps to -1, like one outside the lattice
        conv = np.where(enum.half[conv], conv, -1)
    ia, ja = np.nonzero(u.data)
    ib, jb = np.nonzero(v.data)
    out = np.zeros(u.data.shape, dtype=complex)
    convolve_into(ia, ja - u.jmax, u.data[ia, ja], ib, jb - v.jmax, v.data[ib, jb],
                  conv, u.jmax, out)
    if real:
        mirror = ~enum.half[:-1]
        out[mirror] = np.conj(out[enum.neg[mirror], ::-1])
    out[np.abs(out) <= prune_rel * u.norm(0.0) * v.norm(0.0)] = 0.0
    return u._like(out, real)


def _j_axis(u: AnalyticFunction) -> np.ndarray:
    return np.arange(-u.jmax, u.jmax + 1)


def dx(u: AnalyticFunction, order: int = 1) -> AnalyticFunction:
    """Spatial derivative: c(l, j) -> (i j)^order c(l, j)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return u._like(u.data * (1j * _j_axis(u)) ** order, u.real)


def dx_inv(u: AnalyticFunction) -> AnalyticFunction:
    """Zero-average spatial antiderivative; rejects nonzero x-average input."""
    if not u.zero_x_average:
        raise ValueError("dx_inv requires zero x-average")
    jj = _j_axis(u)
    out = np.zeros_like(u.data)
    np.divide(u.data, 1j * jj, out=out, where=(jj != 0)[None, :])
    return u._like(out, u.real)


def om_dphi(u: AnalyticFunction, omega) -> AnalyticFunction:
    """Directional derivative along the frequency vector: c -> i (omega.l) c."""
    dots = get_enumeration(u.lattice).dots(omega)
    return u._like(u.data * (1j * dots)[:, None], u.real)


def om_dphi_inv(u: AnalyticFunction, omega, gamma: float) -> AnalyticFunction:
    """Solve omega.d_phi h = u for zero-phi-average u.

    Divisors |omega.l| are required to clear the Diophantine floor
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
    return u._like(out, u.real)


def _masked(u: AnalyticFunction, rows=True, cols=True) -> AnalyticFunction:
    """u with the coefficients outside the lattice-row and x-mode masks set to zero."""
    keep = np.logical_and(np.reshape(rows, (-1, 1)), np.reshape(cols, (1, -1)))
    return u._like(np.where(keep, u.data, 0.0), u.real)


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


def phi_average(u: AnalyticFunction) -> AnalyticFunction:
    """phi-average: keep only the l = 0 row (equals the coeff(0, .) column)."""
    return _masked(u, rows=np.arange(len(u.data)) == 0)


def mean_phi_x(u: AnalyticFunction) -> complex:
    """Joint average over phi and x, i.e. the (0, 0) coefficient."""
    return complex(u.data[0, u.jmax])


def lipschitz_norm(samples, gamma: float, sigma: float) -> float:
    """Finite-sample Lipschitz norm sup + gamma * max pairwise quotient.

    ``samples`` is a list of (omega, AnalyticFunction) at distinct frequency
    vectors; the quotient uses the sup-distance between the omegas.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    sup = max(f.norm(sigma) for _, f in samples)
    lip = 0.0
    for a in range(len(samples)):
        for b in range(a + 1, len(samples)):
            om_a, f_a = samples[a]
            om_b, f_b = samples[b]
            h = float(np.max(np.abs(np.asarray(om_a, float) - np.asarray(om_b, float))))
            if h == 0.0:
                raise ValueError("duplicate omega in Lipschitz samples")
            lip = max(lip, (f_a - f_b).norm(sigma) / h)
    return sup + gamma * lip


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
        "real": u.real,
        "zero_x_average": u.zero_x_average,
        "entries": entries,
    }


def from_payload(doc: dict) -> AnalyticFunction:
    lat = LatticeParams(doc["lattice"]["eta"], doc["lattice"]["M"], doc["lattice"]["K"])
    coeffs = {}
    for pairs, j, re, im in doc["entries"]:
        l = MultiIndex.from_pairs([(int(s), int(v)) for s, v in pairs])
        coeffs[(l, int(j))] = complex(re, im)
    return AnalyticFunction(lat, int(doc["jmax"]), coeffs, real=bool(doc["real"]))


def dumps(u: AnalyticFunction) -> str:
    return json.dumps(to_payload(u), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> AnalyticFunction:
    return from_payload(json.loads(text))


# -- grid-based operations (implemented in _grid) ----------------------------


@dataclass(frozen=True)
class ScalarSeries:
    """Descriptor of an analytic scalar map z -> fn(z) valid for |z| < radius."""

    fn: object
    radius: float
    label: str = ""


# _grid needs this module only at call time, so the import can come last.
from ._grid import (  # noqa: E402
    compose_phi_shift,
    compose_x_diffeo,
    compose_x_translation,
    invert_phi_shift,
    invert_x_diffeo,
    moser_compose,
    substitute,
    substitute_inverse,
)
