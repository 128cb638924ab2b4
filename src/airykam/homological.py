"""Constant-coefficient and diagonal homological equations by Fourier division.

Divisors are never regularized: a divisor under its floor is an error with a
witness, matching the Cantor-set philosophy (solve only for admissible
frequencies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticFunction, om_dphi_inv
from .errors import SmallDivisorError
from .lattice import get_enumeration

__all__ = ["DiagonalModel", "solve_airy", "solve_diagonal", "solve_scalar_phi"]


@dataclass
class DiagonalModel:
    """Diagonal frequencies Omega(j) over 1 <= |j| <= jmax plus the vector omega."""

    Omega: dict
    omega: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.Omega = {int(j): float(v) for j, v in self.Omega.items()}
        if any(j == 0 for j in self.Omega):
            raise ValueError("Omega is defined for j != 0")


def _divide(f: AnalyticFunction, div, floor, what: str) -> AnalyticFunction:
    """h = -f / (i div) on the nonzero coefficients of f, whose divisors must
    clear the floor; the first breach in canonical order raises with its witness."""
    used = f.data != 0
    div, floor = np.broadcast_arrays(div, floor, used)[:2]
    breach = np.argwhere(used & (np.abs(div) < floor))
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
    return AnalyticFunction.from_array(f.lattice, f.jmax, out, real=f.real)


def solve_airy(f: AnalyticFunction, omega, gamma0: float,
               lambda3: float = 1.0) -> AnalyticFunction:
    """h with (omega.d_phi + lambda3 dx^3) h = -f, exactly on the truncation.

    Requires zero x-average f; each divisor omega.l - lambda3 j^3 must clear
    the floor gamma0 / d(l).
    """
    if not f.zero_x_average:
        raise ValueError("forcing must have zero x-average")
    enum = get_enumeration(f.lattice)
    jj = np.arange(-f.jmax, f.jmax + 1)
    div = enum.dots(omega)[:, None] - lambda3 * (jj**3)[None, :]
    return _divide(f, div, (gamma0 / enum.dvals)[:, None], "floor")


def solve_diagonal(model: DiagonalModel, f: AnalyticFunction, gamma: float) -> AnalyticFunction:
    """h with (omega.d_phi + D) h = -f for D = diag i Omega(j).

    Divisors omega.l + Omega(j) carry the first-order Melnikov floor
    gamma |j|^3 / d(l).
    """
    if not f.zero_x_average:
        raise ValueError("forcing must have zero x-average")
    jj = np.arange(-f.jmax, f.jmax + 1)
    missing = [j for j in jj[f.data.any(axis=0)].tolist() if j not in model.Omega]
    if missing:
        raise ValueError(f"mode j={missing[0]} outside the frequency table")
    enum = get_enumeration(f.lattice)
    Omega = np.array([model.Omega.get(j, 0.0) for j in jj.tolist()])
    div = enum.dots(model.omega)[:, None] + Omega[None, :]
    floor = (gamma * np.abs(jj) ** 3)[None, :] / enum.dvals[:, None]
    return _divide(f, div, floor, "Melnikov floor")


def solve_scalar_phi(rhs: AnalyticFunction, omega, gamma: float) -> AnalyticFunction:
    """Solve omega.d_phi b = rhs for zero-phi-average rhs of phi alone.

    Delegates to om_dphi_inv with the Diophantine floor gamma * prod
    1/(1 + l_i^2 i^2).
    """
    if not rhs.phi_only:
        raise ValueError("right-hand side must depend on phi only")
    return om_dphi_inv(rhs, omega, gamma)
