"""Constant-coefficient and diagonal homological equations by Fourier division.

Divisors are never regularized: a divisor that does not exceed its floor is
an error with a witness, matching the Cantor-set philosophy (solve only for
admissible frequencies).
"""

from __future__ import annotations

import numpy as np

from .analytic import AnalyticFunction
from .errors import SmallDivisorError
from .lattice import get_enumeration

__all__ = ["solve_airy", "solve_diagonal"]


def _divide(f: AnalyticFunction, div, floor, what: str) -> AnalyticFunction:
    """h = -f / (i div) on the nonzero coefficients of f, whose divisors must
    exceed the floor; the first breach in canonical order raises with its witness."""
    used = f.data != 0
    div, floor = np.broadcast_arrays(div, floor, used)[:2]
    breach = np.argwhere(used & (np.abs(div) <= floor))
    if breach.size:
        p, col = breach[0]
        l, j = get_enumeration(f.lattice).indices[p], int(col) - f.jmax
        d, fl = float(div[p, col]), float(floor[p, col])
        raise SmallDivisorError(
            f"divisor {abs(d):.3e} under {what} {fl:.3e} at (l={l!r}, j={j})",
            l=l, j=j, divisor=d, floor=fl,
        )
    out = np.zeros_like(f.data)
    np.divide(-f.data, 1j * div, out=out, where=used)
    return AnalyticFunction.from_array(f.lattice, f.jmax, out)


def solve_airy(f: AnalyticFunction, omega, gamma0: float,
               lambda3: float = 1.0) -> AnalyticFunction:
    """h with (omega.d_phi + lambda3 dx^3) h = -f, exactly on the truncation.

    Requires zero x-average f; each divisor omega.l - lambda3 j^3 must exceed
    the floor gamma0 / d(l).
    """
    if not f.zero_x_average:
        raise ValueError("forcing must have zero x-average")
    enum = get_enumeration(f.lattice)
    jj = np.arange(-f.jmax, f.jmax + 1)
    div = enum.dots(omega)[:, None] - lambda3 * (jj**3)[None, :]
    return _divide(f, div, (gamma0 / enum.dvals)[:, None], "floor")


def solve_diagonal(f: AnalyticFunction, omega, Omega, gamma: float) -> AnalyticFunction:
    """h with (omega.d_phi + D) h = -f for D = diag i Omega(j).

    ``Omega`` holds Omega(j) indexed j + jmax, for the jmax of f (the j = 0
    slot is unused).  Divisors omega.l + Omega(j) carry the first-order
    Melnikov floor gamma |j|^3 / d(l).
    """
    if not f.zero_x_average:
        raise ValueError("forcing must have zero x-average")
    Omega = np.asarray(Omega, dtype=float)
    if Omega.shape != (2 * f.jmax + 1,):
        raise ValueError(f"Omega must hold the {2 * f.jmax + 1} modes |j| <= {f.jmax}")
    enum = get_enumeration(f.lattice)
    jj = np.arange(-f.jmax, f.jmax + 1)
    div = enum.dots(omega)[:, None] + Omega[None, :]
    # formed as first_melnikov forms it, so the two agree to the last bit
    floor = (gamma / enum.dvals)[:, None] * np.abs(jj) ** 3
    return _divide(f, div, floor, "Melnikov floor")
