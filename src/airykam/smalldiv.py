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


def _result(ratios, enum, jlist, hlist, divisors, floors):
    """Assemble a CheckResult from a ratio tensor (inf marks excluded entries)."""
    k = int(np.argmin(ratios))
    idx = np.unravel_index(k, ratios.shape)
    margin = float(ratios[idx])
    ok = margin > 1.0
    wit = None
    if not ok:
        l = enum.indices[idx[0]]
        j = None if jlist is None else int(jlist[idx[1]])
        h = None if hlist is None else int(hlist[idx[2]])
        wit = Witness(l, j, h, float(divisors[idx]), float(floors[idx]))
    return CheckResult(ok, margin, wit)


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
    return _result(ratios, enum, None, None, dots, floors)


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
    div = np.abs(dots[:, None] + (jlist.astype(float) ** 3)[None, :])
    floors = (gamma0 / enum.dvals)[:, None] * np.ones_like(div)
    excluded = (enum.l1 == 0)[:, None] & (jlist == 0)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(excluded, np.inf, div / floors)
    return _result(ratios, enum, jlist, None, div, floors)


def first_melnikov(omega, Omega, gamma: float, lattice: LatticeParams) -> CheckResult:
    """|omega.l + Omega(j)| >= gamma |j|^3 / d(l) over the truncated set."""
    jlist, vals = _modes(Omega)
    if not jlist.size:
        return CheckResult(True, np.inf, None)
    enum = get_enumeration(lattice)
    om = _omega_array(omega, lattice.M)
    dots = enum.dots(om)
    div = np.abs(dots[:, None] + vals[None, :])
    floors = (gamma / enum.dvals)[:, None] * (np.abs(jlist.astype(float)) ** 3)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = div / floors
    return _result(ratios, enum, jlist, None, div, floors)


def second_melnikov(omega, Omega, gamma: float, lattice: LatticeParams, *,
                    gbar: Optional[float] = None, N: Optional[float] = None,
                    two_gamma: bool = True) -> CheckResult:
    """|omega.l + Omega(j) - Omega(h)| >= c gamma |j^3 - h^3| / d(l), (l,j,h) != (0,j,j).

    ``c`` is 2 for the limiting set (default) and 1 for the per-step sets.
    The j = h, l != 0 pairs carry no cubic weight; they are checked against
    the ambient Diophantine floor when ``gbar`` is given, else skipped.
    ``N`` restricts the scan to |l|_eta <= N.
    """
    jlist, vals = _modes(Omega)
    enum = get_enumeration(lattice)
    om = _omega_array(omega, lattice.M)
    dots = enum.dots(om)
    fac = 2.0 * gamma if two_gamma else gamma

    best = CheckResult(True, np.inf, None)
    if jlist.size:
        gap = vals[:, None] - vals[None, :]
        j3 = jlist.astype(float) ** 3
        wt = np.abs(j3[:, None] - j3[None, :])
        div = np.abs(dots[:, None, None] + gap[None, :, :])
        floors = (fac / enum.dvals)[:, None, None] * wt[None, :, :]
        # j = h pairs carry weight 0 and are handled by the gbar branch below
        excluded = (jlist[:, None] == jlist[None, :])[None, :, :]
        if N is not None:
            excluded = excluded | ~enum.within(N)[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(excluded, np.inf, div / floors)
        best = _result(ratios, enum, jlist, jlist, div, floors)

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

    def as_dict(self):
        return {
            "fraction": self.fraction,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_samples": self.n_samples,
        }


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

        first = np.abs(dots[:, None] + vals_t[None, :]) * enum.dvals[:, None]
        first = first / np.maximum(1.0, np.abs(j3))[None, :]
        k = int(np.argmin(first))
        idx = np.unravel_index(k, first.shape)
        classes["first"] = float(first[idx])
        if first[idx] < best_val:
            best_val = float(first[idx])
            best_wit = Witness(enum.indices[idx[0]], int(jlist[idx[1]]), None,
                               float(np.abs(dots[idx[0]] + vals_t[idx[1]])), 0.0)

        gap = vals_t[:, None] - vals_t[None, :]
        wt = np.maximum(1.0, np.abs(j3[:, None] - j3[None, :]))
        second = np.abs(dots[:, None, None] + gap[None, :, :]) * enum.dvals[:, None, None] / wt
        same = jlist[:, None] == jlist[None, :]
        zero_l = (enum.l1 == 0)[:, None, None]
        excl = np.broadcast_to(same[None, :, :], second.shape) | np.broadcast_to(
            zero_l, second.shape
        )
        second = np.where(excl, np.inf, second)
        k = int(np.argmin(second))
        idx = np.unravel_index(k, second.shape)
        if np.isfinite(second[idx]):
            classes["second"] = float(second[idx])
            if second[idx] < best_val:
                best_val = float(second[idx])
                best_wit = Witness(
                    enum.indices[idx[0]], int(jlist[idx[1]]), int(jlist[idx[2]]),
                    float(np.abs(dots[idx[0]] + gap[idx[1], idx[2]])), 0.0,
                )

    note = "" if np.isfinite(best_val) else "no nontrivial triples"
    return DivisorReport(float(best_val), best_wit, classes, note)
