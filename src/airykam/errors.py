"""Shared exception types for the solver stack."""

from __future__ import annotations


class SmallDivisorError(ArithmeticError):
    """A Fourier divisor did not exceed its configured lower bound.

    Carries the offending mode so callers can report a witness.
    """

    def __init__(self, message, *, l=None, j=None, h=None, divisor=None, floor=None):
        super().__init__(message)
        self.l = l
        self.j = j
        self.h = h
        self.divisor = divisor
        self.floor = floor

    def witness(self):
        return {
            "l": None if self.l is None else list(self.l.pairs()),
            "j": self.j,
            "h": self.h,
            "divisor": self.divisor,
            "floor": self.floor,
        }


class AliasingError(ValueError):
    """Collocation-grid re-expansion left too much energy outside the retained modes."""

    def __init__(self, message, *, alias_rel=None, context=""):
        super().__init__(message)
        self.alias_rel = alias_rel
        self.context = context


class SeriesDivergenceError(ArithmeticError):
    """An exponential/Lie series failed the ratio test before reaching tolerance."""


class SeriesRadiusError(ValueError):
    """A scalar-series argument left the declared convergence radius."""


class NonContractionError(ValueError):
    """Fixed-point inversion of a near-identity map failed to contract."""


class ReductionError(RuntimeError):
    """A reducibility or conjugation stage exceeded its verification tolerance."""
