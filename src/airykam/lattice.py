"""Finitely supported integer multi-indices and their weighted norms.

Sites are indexed from 1.  A multi-index stands for an integer combination of
the forcing frequencies; the weighted norm sum(i^eta * |l_i|) and the
fifth-power divisor weight prod(1 + |l_i|^5 * i^5) control all small-divisor
bookkeeping downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MultiIndex",
    "LatticeParams",
    "eta_norm",
    "divisor_weight",
    "diophantine_weight",
    "enumerate_indices",
    "get_enumeration",
]


class MultiIndex:
    """Integer vector on sites 1, 2, ... with finitely many nonzero entries.

    Entries are stored densely up to the last nonzero site; all arithmetic is
    exact integer arithmetic and instances are immutable and hashable.
    """

    __slots__ = ("_e",)

    def __init__(self, entries=()):
        e = tuple(int(v) for v in entries)
        while e and e[-1] == 0:
            e = e[:-1]
        object.__setattr__(self, "_e", e)

    @classmethod
    def zero(cls) -> "MultiIndex":
        return cls()

    @classmethod
    def unit(cls, site: int, value: int = 1) -> "MultiIndex":
        if site < 1:
            raise ValueError("sites are indexed from 1")
        return cls((0,) * (site - 1) + (value,))

    @classmethod
    def from_pairs(cls, pairs) -> "MultiIndex":
        pairs = list(pairs)
        if not pairs:
            return cls()
        top = max(int(site) for site, _ in pairs)
        if top < 1 or any(int(site) < 1 for site, _ in pairs):
            raise ValueError("sites are indexed from 1")
        arr = [0] * top
        for site, v in pairs:
            arr[int(site) - 1] += int(v)
        return cls(arr)

    @property
    def entries(self) -> tuple:
        return self._e

    def pairs(self) -> tuple:
        return tuple((i + 1, v) for i, v in enumerate(self._e) if v)

    def dense(self, m: int) -> tuple:
        if len(self._e) > m:
            raise ValueError(f"support reaches site {len(self._e)} > M={m}")
        return self._e + (0,) * (m - len(self._e))

    def max_site(self) -> int:
        return len(self._e)

    def __bool__(self) -> bool:
        return bool(self._e)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        a, b = self._e, other._e
        if len(a) < len(b):
            a, b = b, a
        return MultiIndex(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "MultiIndex":
        return MultiIndex(tuple(-x for x in self._e))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __repr__(self) -> str:
        return f"MultiIndex({list(self._e)!r})"


def eta_norm(l: MultiIndex, eta: float) -> float:
    """Weighted l1 norm sum over sites of i^eta * |l_i|."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return float(sum((i + 1) ** eta * abs(v) for i, v in enumerate(l.entries) if v))


def divisor_weight(l: MultiIndex) -> float:
    """Fifth-power divisor weight prod(1 + |l_i|^5 * i^5); empty product is 1.

    The product is accumulated in exact integer arithmetic and converted to
    float at the end; conversion overflow is raised, never saturated.
    """
    p = 1
    for i, v in enumerate(l.entries):
        if v:
            p *= 1 + abs(v) ** 5 * (i + 1) ** 5
    try:
        return float(p)
    except OverflowError:
        raise OverflowError(f"divisor weight overflows float for {l!r}") from None


def diophantine_weight(l: MultiIndex) -> float:
    """Quadratic weight prod over the support of 1/(1 + l_i^2 * i^2), in (0, 1]."""
    if not l:
        raise ValueError("diophantine weight is undefined for the zero index")
    p = 1.0
    for i, v in enumerate(l.entries):
        if v:
            p /= 1.0 + v * v * (i + 1) ** 2
    return p


@dataclass(frozen=True)
class LatticeParams:
    """Truncation of the frequency lattice: sites 1..M, eta-norm at most K."""

    eta: float
    M: int
    K: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if int(self.M) != self.M or self.M < 1:
            raise ValueError("M must be an integer >= 1")
        if self.K <= 0:
            raise ValueError("K must be positive")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "K", float(self.K))


def _dense_tuples(params: LatticeParams):
    """All dense entry tuples with support in 1..M and eta-norm <= K."""
    out = []
    weights = [s**params.eta for s in range(1, params.M + 1)]

    def rec(site, prefix, budget):
        if site > params.M:
            out.append(tuple(prefix))
            return
        w = weights[site - 1]
        r = int(math.floor(budget / w + 1e-12))
        for v in range(-r, r + 1):
            rec(site + 1, prefix + [v], budget - abs(v) * w)

    rec(1, [], params.K)
    return out


def enumerate_indices(params: LatticeParams) -> tuple:
    """Every truncated multi-index exactly once, ordered by (eta-norm, entries)."""
    return get_enumeration(params).indices


class Enumeration:
    """Cached arrays for one lattice truncation: the single index of all spectral data.

    Row p of ``dense`` is the p-th multi-index in canonical order (eta-norm,
    then entries); index 0 is the zero multi-index.  Functions and operators
    store their coefficients by this index, so every table here (negation, the
    canonical half, sums, norms, divisor weights) applies to them by plain
    array indexing.
    """

    _CONV_LIMIT = 4096
    _CONV_BLOCK = 1 << 14     # table entries looked up at once by conv_table

    def __init__(self, params: LatticeParams):
        self.params = params
        dense = _dense_tuples(params)
        sites = np.arange(1, params.M + 1, dtype=float)
        w = sites**params.eta
        arr = np.array(dense, dtype=np.int64).reshape(len(dense), params.M)
        norms = np.abs(arr).astype(float) @ w
        order = sorted(range(len(dense)), key=lambda i: (norms[i], dense[i]))
        self.dense = arr[order]
        self.eta_norms = norms[order]
        # The truncation lies in the box |l_s| <= b_s = bounds[s - 1]; each box row has
        # one key in the mixed radix 2 b_s + 1 (Python ints where int64 would overflow).
        self.bounds = tuple(int(b) for b in np.abs(self.dense).max(axis=0))
        radix = [math.prod(2 * b + 1 for b in self.bounds[:s]) for s in range(params.M + 1)]
        self._radix = np.array(radix[:-1], dtype=object if radix[-1] >= 2**63 else np.int64)
        keys = (self.dense + self.bounds) @ self._radix
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]
        self.indices = tuple(MultiIndex(dense[i]) for i in order)
        self.index_of = {l: i for i, l in enumerate(self.indices)}
        self.size = len(self.indices)
        self.dvals = np.array([divisor_weight(l) for l in self.indices])
        # the zero index (row 0) has no Diophantine weight; its inf is never read
        self.dioph = np.array(
            [diophantine_weight(l) if l else np.inf for l in self.indices]
        )
        self.neg = self.lookup(-self.dense)
        # The canonical half: p <= neg[p], one index of each mirror pair l, -l.
        # The trailing False sends the index -1 (outside the truncation) out of it.
        self.half = np.append(np.arange(self.size) <= self.neg, False)
        self._conv = None

    def lookup(self, rows) -> np.ndarray:
        """Index of each dense row (length M), or -1 when it is outside the truncation."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.params.M)
        in_box = np.all(np.abs(rows) <= self.bounds, axis=1)
        keys = (rows + self.bounds) @ self._radix  # a key of a row outside the box is unused
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), self.size - 1)
        found = in_box & (self._sorted_keys[pos] == keys)
        return np.where(found, self._key_order[pos], -1)

    def within(self, N: float) -> np.ndarray:
        """Mask of the indices with |l|_eta <= N; the zero index is always inside."""
        mask = self.eta_norms <= N + 1e-12
        mask[0] = True
        return mask

    def dots(self, omega) -> np.ndarray:
        """omega . l for every enumerated l."""
        om = np.asarray(omega, dtype=float)
        if om.shape != (self.params.M,):
            raise ValueError(f"omega must have length M={self.params.M}")
        return self.dense @ om

    def conv_table(self) -> np.ndarray:
        """conv[p, q] = index of l_p + l_q, or -1 when outside the truncation.

        Built a block of rows at a time, so the lookup's temporaries stay
        small next to the n x n table.
        """
        if self._conv is None:
            n = self.size
            if n > self._CONV_LIMIT:
                raise ValueError(f"lattice too large for a convolution table ({n})")
            conv = np.empty((n, n), dtype=np.int64)
            step = max(1, self._CONV_BLOCK // n)
            for lo in range(0, n, step):
                rows = self.dense[lo:lo + step]
                conv[lo:lo + step] = self.lookup(rows[:, None, :] + self.dense).reshape(-1, n)
            self._conv = conv
        return self._conv


@lru_cache(maxsize=128)
def get_enumeration(params: LatticeParams) -> Enumeration:
    return Enumeration(params)

