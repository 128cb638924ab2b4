"""Truncated-spectral Nash-Moser-KAM machinery for the forced quasi-linear
Airy equation: sparse almost-periodic Fourier series, symplectic changes of
variables, quasi-periodic reducibility, and small-divisor diagnostics."""

__version__ = "0.1.0"
