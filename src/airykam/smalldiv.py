"""Membership predicates for the non-resonance sets and Monte Carlo measure
estimation over the frequency box [1, 2]^M.

Every condition is one scan of the ratios |omega.l + shift| / floor over a
set of lattice rows l and columns (modes j, or pairs (j, h)), with the floor
a row factor times a column weight (``_scan``): the Diophantine condition,
the cubic non-resonance and the first and second Melnikov conditions.  A
predicate returns a CheckResult carrying the worst margin, the smallest
ratio (pass means margin > 1, so a divisor must exceed its floor), and, on
failure, the witness that attains it.  ``smallest_divisor_report`` reads
the same scans at floor constant 1.

Frequencies Omega(j) of a diagonal operator come as one array indexed
j + jmax over |j| <= jmax; the j = 0 slot is unused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SmallDivisorError
from .lattice import LatticeParams, MultiIndex, get_enumeration

__all__ = [
    "FrequencyVector",
    "DiophantineParams",
    "Witness",
    "CheckResult",
    "is_diophantine",
    "is_airy_nonresonant",
    "first_melnikov",
    "second_melnikov",
    "measure_estimate",
    "MeasureEstimate",
    "smallest_divisor_report",
    "DivisorReport",
]


class FrequencyVector:
    """Frequency vector with components in [1, 2]."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("frequency vector must be one-dimensional")
        if np.any(v < 1.0) or np.any(v > 2.0):
            raise ValueError("frequency components must lie in [1, 2]")
        self.values = v

    def __repr__(self):
        return f"FrequencyVector({self.values.tolist()!r})"


@dataclass(frozen=True)
class DiophantineParams:
    """gamma schedule gamma_n = (1 - 2^-n) gamma_{n-1} below the ambient gbar."""

    gamma0: float
    gbar: float

    def __post_init__(self):
        if not 0.0 < self.gamma0 < 1.0:
            raise ValueError("gamma0 must lie in (0, 1)")
        if self.gamma0 >= 0.5 * self.gbar:
            raise ValueError("gamma0 must be below gbar / 2")

    def gamma(self, n: int) -> float:
        g = self.gamma0
        for k in range(1, n + 1):
            g *= 1.0 - 2.0**-k
        return g


@dataclass(frozen=True)
class Witness:
    l: MultiIndex
    j: Optional[int]
    h: Optional[int]
    divisor: float
    floor: float

    def as_dict(self):
        return {
            "l": [list(p) for p in self.l.pairs()],
            "j": self.j,
            "h": self.h,
            "divisor": self.divisor,
            "floor": self.floor,
        }


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    margin: float
    witness: Optional[Witness] = None

    def __bool__(self):
        return self.ok

    def error(self, message) -> SmallDivisorError:
        """The SmallDivisorError of a failed check: ``message`` and the
        witness's mode, divisor and floor."""
        w = self.witness
        if w is None:
            return SmallDivisorError(message)
        return SmallDivisorError(message, l=w.l, j=w.j, h=w.h, divisor=w.divisor, floor=w.floor)


def _modes(Omega):
    """The modes j != 0 of a frequency array indexed j + jmax, and Omega(j) on them."""
    vals = np.asarray(Omega, dtype=float)
    if vals.ndim != 1 or vals.size % 2 != 1:
        raise ValueError("Omega must be a 1-d array of odd length, indexed j + jmax")
    jmax = vals.size // 2
    jj = np.arange(-jmax, jmax + 1)
    return jj[jj != 0], vals[jj != 0]


def _scan(omega, lattice, rows, shift, row_floor, weight, excluded, label):
    """Smallest ratio |omega.l + shift[c]| / (row_floor[l] * weight[c]) over the
    lattice rows ``rows`` and the columns c of ``shift``: (margin, witness),
    where ``witness()`` builds the Witness at the argmin, or (inf, None) when
    nothing is scanned.

    ``row_floor`` is indexed like the lattice, ``weight`` has the shape of
    ``shift`` (None for the unit weight), ``excluded`` indexes the entries
    left out of the ratio buffer (rows, *shift.shape), and ``label(*c)`` is
    the (j, h) of column c.  The buffer is divided in place a block of rows
    at a time, at most 2^16 floors (0.5 MB) at once, so no floor table is
    formed whole.
    """
    enum = get_enumeration(lattice)
    dots = enum.dots(omega)[rows]
    fd = row_floor[rows]
    ratios = np.add.outer(dots, shift)
    if not ratios.size:
        return np.inf, None
    np.abs(ratios, out=ratios)
    step = len(ratios) if weight is None else max(1, 2 ** 16 // shift.size)
    shape = (-1,) + (1,) * shift.ndim
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(ratios), step):
            floor = fd[lo:lo + step].reshape(shape)
            ratios[lo:lo + step] /= floor if weight is None else floor * weight
    if excluded is not None:
        ratios[excluded] = np.inf
    idx = np.unravel_index(int(np.argmin(ratios)), ratios.shape)
    r, c = idx[0], idx[1:]

    def witness():
        floor = fd[r] if weight is None else fd[r] * weight[c]
        return Witness(enum.indices[np.arange(enum.size)[rows][r]], *label(*c),
                       float(np.abs(dots[r] + shift[c])), float(floor))
    return float(ratios[idx]), witness


def _check(margin, witness) -> CheckResult:
    """A scan's CheckResult: it passes when the margin exceeds 1, and builds
    the witness only when it fails."""
    ok = margin > 1.0
    return CheckResult(ok, margin, None if ok else witness())


def _pure_scan(omega, lattice, row_floor):
    """|omega.l| / row_floor[l] over l != 0 (row 0 is the zero index)."""
    return _scan(omega, lattice, slice(1, None), np.zeros(1), row_floor, None, None,
                 lambda c: (None, None))


def _first_scan(omega, Omega, gamma, lattice):
    """|omega.l + Omega(j)| / (gamma |j|^3 / d(l)) over all l and j != 0."""
    jlist, vals = _modes(Omega)
    enum = get_enumeration(lattice)
    return _scan(omega, lattice, slice(None), vals, gamma / enum.dvals,
                 np.abs(jlist.astype(float)) ** 3, None, lambda c: (int(jlist[c]), None))


def _second_scan(omega, Omega, gamma, lattice, rows):
    """|omega.l + Omega(j) - Omega(h)| / (gamma |j^3 - h^3| / d(l)) over the
    lattice rows ``rows`` and j != h, both nonzero."""
    jlist, vals = _modes(Omega)
    enum = get_enumeration(lattice)
    j3 = jlist.astype(float) ** 3
    same = np.arange(jlist.size)
    return _scan(omega, lattice, rows, vals[:, None] - vals[None, :], gamma / enum.dvals,
                 np.abs(j3[:, None] - j3[None, :]), (slice(None), same, same),
                 lambda a, b: (int(jlist[a]), int(jlist[b])))


def is_diophantine(omega, gamma: float, lattice: LatticeParams) -> CheckResult:
    """|omega.l| > gamma * prod 1/(1 + l_i^2 i^2) for every truncated l != 0."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return _check(*_pure_scan(omega, lattice, gamma * get_enumeration(lattice).dioph))


def is_airy_nonresonant(omega, gamma0: float, lattice: LatticeParams, jmax: int) -> CheckResult:
    """|omega.l + j^3| > gamma0 / d(l) over the truncation, (l, j) != (0, 0).

    j is scanned over both signs; by l -> -l symmetry this covers the
    one-sided form, and the witnesses match the divisors omega.l - j^3 that
    the constant-coefficient solver actually divides by.
    """
    jlist = np.arange(-jmax, jmax + 1)
    floors = gamma0 / get_enumeration(lattice).dvals
    # entry (0, jmax) is (l, j) = (0, 0): row 0 is the zero index
    return _check(*_scan(omega, lattice, slice(None), jlist.astype(float) ** 3, floors,
                         None, (0, jmax), lambda c: (int(jlist[c]), None)))


def first_melnikov(omega, Omega, gamma: float, lattice: LatticeParams) -> CheckResult:
    """|omega.l + Omega(j)| > gamma |j|^3 / d(l) over the truncated set."""
    return _check(*_first_scan(omega, Omega, gamma, lattice))


def second_melnikov(omega, Omega, gamma: float, lattice: LatticeParams, *,
                    gbar: Optional[float] = None, N: Optional[float] = None) -> CheckResult:
    """|omega.l + Omega(j) - Omega(h)| > gamma |j^3 - h^3| / d(l), (l,j,h) != (0,j,j).

    ``N`` restricts the scan to |l|_eta <= N.  The j = h, l != 0 pairs
    carry no cubic weight; they are checked against the ambient Diophantine
    floor when ``gbar`` is given, else skipped, and that check runs over the
    whole lattice, not only within N.  The limiting set of the scheme is the
    check at 2 gamma.
    """
    rows = slice(None) if N is None else get_enumeration(lattice).within(N)
    best = _check(*_second_scan(omega, Omega, gamma, lattice, rows))
    if gbar is not None:
        diag = is_diophantine(omega, gbar, lattice)
        ok = best.ok and diag.ok
        if diag.margin < best.margin:
            best = CheckResult(ok, diag.margin, diag.witness or best.witness)
        else:
            best = CheckResult(ok, best.margin, best.witness or diag.witness)
    return best


@dataclass(frozen=True)
class MeasureEstimate:
    fraction: float
    ci_low: float
    ci_high: float
    n_samples: int


def measure_estimate(predicate, n_samples: int, seed: int, M: int) -> MeasureEstimate:
    """Acceptance fraction of a predicate over uniform omega in [1, 2]^M.

    Seeded and reproducible; returns the fraction with a 95% normal-
    approximation binomial confidence interval.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(1.0, 2.0, size=(n_samples, M))
    hits = 0
    for k in range(n_samples):
        if predicate(samples[k]):
            hits += 1
    p = hits / n_samples
    half = 1.96 * np.sqrt(max(p * (1.0 - p), 0.0) / n_samples)
    return MeasureEstimate(p, max(0.0, p - half), min(1.0, p + half), n_samples)


@dataclass
class DivisorReport:
    value: float
    witness: Optional[Witness]
    classes: dict = field(default_factory=dict)
    note: str = ""

    def as_dict(self):
        return {
            "value": self.value,
            "witness": None if self.witness is None else self.witness.as_dict(),
            "classes": self.classes,
            "note": self.note,
        }


def smallest_divisor_report(omega, Omega, lattice: LatticeParams) -> DivisorReport:
    """Smallest divisor ratio of each class at floor constant 1.

    The classes are the scans of the checks at gamma = 1: pure frequency
    combinations |omega.l| d(l) (l != 0), first-order divisors as in
    ``first_melnikov`` and second-order divisors (l != 0, j != h) as in
    ``second_melnikov``.  A class with nothing to scan is left out; with
    jmax = 0 (Omega of length 1) only the pure class exists.  The value and
    witness are those of the smallest class.  Used to choose gamma schedules.
    """
    scans = {
        "pure": _pure_scan(omega, lattice, 1.0 / get_enumeration(lattice).dvals),
        "first": _first_scan(omega, Omega, 1.0, lattice),
        "second": _second_scan(omega, Omega, 1.0, lattice, slice(1, None)),
    }
    scans = {k: v for k, v in scans.items() if np.isfinite(v[0])}
    value, witness = min(scans.values(), key=lambda v: v[0], default=(np.inf, None))
    note = "" if np.isfinite(value) else "no nontrivial triples"
    return DivisorReport(value, witness and witness(), {k: v[0] for k, v in scans.items()}, note)
