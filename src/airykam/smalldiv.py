"""Membership predicates for the non-resonance sets and Monte Carlo measure
estimation over the frequency box [1, 2]^M.

Every predicate returns a CheckResult carrying the worst margin
min |divisor| / floor over the scanned truncated index set (pass means
margin > 1) and, on failure, the witness that attains it.

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


def _omega_array(omega, m):
    v = np.asarray(omega, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"omega must have length {m}")
    return v


def _modes(Omega):
    """The modes j != 0 of a frequency array indexed j + jmax, and Omega(j) on them."""
    vals = np.asarray(Omega, dtype=float)
    if vals.ndim != 1 or vals.size % 2 != 1:
        raise ValueError("Omega must be a 1-d array of odd length, indexed j + jmax")
    jmax = vals.size // 2
    jj = np.arange(-jmax, jmax + 1)
    return jj[jj != 0], vals[jj != 0]


def _result(ratios, witness):
    """Assemble a CheckResult from a ratio array (inf marks excluded entries);
    ``witness(*index)`` builds the Witness at the argmin when the check fails."""
    idx = np.unravel_index(int(np.argmin(ratios)), ratios.shape)
    margin = float(ratios[idx])
    ok = margin > 1.0
    return CheckResult(ok, margin, None if ok else witness(*idx))


def _divide_rows(ratios, row_factors, weights):
    """ratios[r] /= row_factors[r] * weights in place.  The floors
    row_factors[r] * weights are formed a block of rows at a time, at most
    2^16 entries (0.5 MB), so the floor table is never formed whole."""
    step = max(1, 2 ** 16 // weights.size)
    shape = (-1,) + (1,) * weights.ndim
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(ratios), step):
            ratios[lo:lo + step] /= row_factors[lo:lo + step].reshape(shape) * weights


def is_diophantine(omega, gamma: float, lattice: LatticeParams) -> CheckResult:
    """|omega.l| > gamma * prod 1/(1 + l_i^2 i^2) for every truncated l != 0."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    enum = get_enumeration(lattice)
    om = _omega_array(omega, lattice.M)
    dots = np.abs(enum.dots(om))
    floors = gamma * np.where(np.isinf(enum.dioph), 0.0, enum.dioph)  # 0 at l = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(floors > 0.0, dots / floors, np.inf)
    return _result(ratios, lambda p: Witness(enum.indices[p], None, None,
                                             float(dots[p]), float(floors[p])))


def is_airy_nonresonant(omega, gamma0: float, lattice: LatticeParams, jmax: int) -> CheckResult:
    """|omega.l + j^3| >= gamma0 / d(l) over the truncation, (l, j) != (0, 0).

    j is scanned over both signs; by l -> -l symmetry this covers the
    one-sided form, and the witnesses match the divisors omega.l - j^3 that
    the constant-coefficient solver actually divides by.
    """
    enum = get_enumeration(lattice)
    om = _omega_array(omega, lattice.M)
    dots = enum.dots(om)
    jlist = np.arange(-jmax, jmax + 1)
    j3 = jlist.astype(float) ** 3
    floors = gamma0 / enum.dvals
    ratios = np.add.outer(dots, j3)
    np.abs(ratios, out=ratios)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios /= floors[:, None]
    ratios[enum.l1 == 0, jmax] = np.inf
    return _result(ratios, lambda p, c: Witness(enum.indices[p], int(jlist[c]), None,
                                                float(np.abs(dots[p] + j3[c])), float(floors[p])))


def first_melnikov(omega, Omega, gamma: float, lattice: LatticeParams) -> CheckResult:
    """|omega.l + Omega(j)| >= gamma |j|^3 / d(l) over the truncated set."""
    jlist, vals = _modes(Omega)
    if not jlist.size:
        return CheckResult(True, np.inf, None)
    enum = get_enumeration(lattice)
    om = _omega_array(omega, lattice.M)
    dots = enum.dots(om)
    fd = gamma / enum.dvals
    wt = np.abs(jlist.astype(float)) ** 3
    ratios = np.add.outer(dots, vals)
    np.abs(ratios, out=ratios)
    _divide_rows(ratios, fd, wt)
    return _result(ratios, lambda p, c: Witness(enum.indices[p], int(jlist[c]), None,
                                                float(np.abs(dots[p] + vals[c])), float(fd[p] * wt[c])))


def second_melnikov(omega, Omega, gamma: float, lattice: LatticeParams, *,
                    gbar: Optional[float] = None, N: Optional[float] = None) -> CheckResult:
    """|omega.l + Omega(j) - Omega(h)| >= gamma |j^3 - h^3| / d(l), (l,j,h) != (0,j,j).

    The j = h, l != 0 pairs carry no cubic weight; they are checked against
    the ambient Diophantine floor when ``gbar`` is given, else skipped.
    ``N`` restricts the scan to |l|_eta <= N.  The limiting set of the
    scheme is the check at 2 gamma.

    The ratios |divisor| / floor of the rows scanned are formed in one
    buffer, in place (``_divide_rows``); the witness's divisor and floor are
    formed at the argmin alone.
    """
    jlist, vals = _modes(Omega)
    enum = get_enumeration(lattice)
    om = _omega_array(omega, lattice.M)
    dots = enum.dots(om)

    best = CheckResult(True, np.inf, None)
    rows = np.arange(enum.size) if N is None else np.flatnonzero(enum.within(N))
    if jlist.size and rows.size:
        gap = vals[:, None] - vals[None, :]
        j3 = jlist.astype(float) ** 3
        wt = np.abs(j3[:, None] - j3[None, :])
        fd = gamma / enum.dvals[rows]
        ratios = np.add.outer(dots[rows], gap)
        np.abs(ratios, out=ratios)
        _divide_rows(ratios, fd, wt)
        # j = h pairs carry weight 0 and are handled by the gbar branch below
        same = np.arange(jlist.size)
        ratios[:, same, same] = np.inf
        best = _result(ratios, lambda r, a, b: Witness(
            enum.indices[rows[r]], int(jlist[a]), int(jlist[b]),
            float(np.abs(dots[rows[r]] + gap[a, b])), float(fd[r] * wt[a, b])))

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
    """Minimum of |omega.l + Omega(j) - Omega(h)| d(l) / max(1, |j^3 - h^3|).

    Scanned classes: pure frequency combinations (l != 0, j = h), first-order
    divisors (h absent), and second-order divisors (j != h).  With jmax = 0
    (Omega of length 1) only the pure class exists.  Used to choose gamma
    schedules.
    """
    enum = get_enumeration(lattice)
    om = _omega_array(omega, lattice.M)
    dots = enum.dots(om)
    nz = enum.l1 > 0
    best_val = np.inf
    best_wit = None
    classes = {}

    if np.any(nz):
        vals = np.abs(dots[nz]) * enum.dvals[nz]
        k = int(np.argmin(vals))
        classes["pure"] = float(vals[k])
        if vals[k] < best_val:
            best_val = float(vals[k])
            lidx = np.nonzero(nz)[0][k]
            best_wit = Witness(enum.indices[lidx], None, None,
                               float(np.abs(dots[nz])[k]), 0.0)

    jlist, vals_t = _modes(Omega)
    if jlist.size:
        j3 = jlist.astype(float) ** 3

        first = np.add.outer(dots, vals_t)
        np.abs(first, out=first)
        first *= enum.dvals[:, None]
        first /= np.maximum(1.0, np.abs(j3))[None, :]
        idx = np.unravel_index(int(np.argmin(first)), first.shape)
        classes["first"] = float(first[idx])
        if first[idx] < best_val:
            best_val = float(first[idx])
            best_wit = Witness(enum.indices[idx[0]], int(jlist[idx[1]]), None,
                               float(np.abs(dots[idx[0]] + vals_t[idx[1]])), 0.0)

        # second-order divisors of the rows l != 0, in one buffer
        rows = np.flatnonzero(nz)
        gap = vals_t[:, None] - vals_t[None, :]
        wt = np.maximum(1.0, np.abs(j3[:, None] - j3[None, :]))
        second = np.add.outer(dots[rows], gap)
        np.abs(second, out=second)
        second *= enum.dvals[rows, None, None]
        second /= wt
        same = np.arange(jlist.size)
        second[:, same, same] = np.inf
        idx = np.unravel_index(int(np.argmin(second)), second.shape) if rows.size else None
        if idx is not None and np.isfinite(second[idx]):
            classes["second"] = float(second[idx])
            if second[idx] < best_val:
                best_val = float(second[idx])
                best_wit = Witness(
                    enum.indices[rows[idx[0]]], int(jlist[idx[1]]), int(jlist[idx[2]]),
                    float(np.abs(dots[rows[idx[0]]] + gap[idx[1], idx[2]])), 0.0,
                )

    note = "" if np.isfinite(best_val) else "no nontrivial triples"
    return DivisorReport(float(best_val), best_wit, classes, note)
