"""Oversampled collocation grids: composition with diffeomorphisms, inverses,
and scalar-series composition.

All transforms follow the same pattern: evaluate on a tensor grid that
oversamples the retained modes (at least 2*(modes per axis)+1 points), apply
the substitution pointwise, transform back with an FFT and re-truncate.  The
mass found outside the doubled frequency band is reported as aliasing energy
and raises AliasingError beyond tolerance.

A change of variables is one grid pass over a stack of real fields.
``substitute`` evaluates each field at (Phi, x + alpha + p(Phi)) and
``substitute_inverse`` at (Phi, y + alpha~(Phi, y)) with y = x - p(phi),
where Phi = phi + omega beta(phi).  A call builds the amplitudes' grid values
and W = e^{iX} once for the whole stack.  Each field then costs one
``_phi_series`` (its x-spectrum at Phi, from the phase factors e^{i l.Phi}
of the lattice rows), one Horner sum in W (``_x_series``; a phase and an
x-transform when X - x depends on phi alone) and one ``_extract``.  The
single-field kernels ``compose_x_diffeo``, ``compose_phi_shift`` and
``compose_x_translation`` no longer run in a solve: they stay as the
independent implementation whose chain, truncated after each kernel, is the
tests' oracle, and as the names the perfbench tracer wraps.  An inverse is
the fixed point of its forward map (alpha~ = -alpha(phi, y + alpha~) and
beta~ = -beta(theta + omega beta~)), found by the one Picard loop
``_fixed_point``; ``moser_compose`` evaluates a scalar series pointwise.

Every grid field has one layout.  A field is real, and on the grid
sphi x nx it is carried by its x-modes j >= 0: the terms of mode -j are the
conjugates of those of mode j, so a kernel sums only the modes j >= 0 and a
grid field is G_0 + 2 Re sum_{j>=1} G_j W^j.  A function of phi alone is a
field whose x axis has one point (nx = 1).  One placement (``_place``) puts
the modes j >= 0 in FFT order over the phi grid, one evaluation
(``_to_x_grid``, an ``irfft`` in x) gives every amplitude and series
argument its grid values from its ``_x_spectrum``, and one extraction
(``_extract``, an ``rfftn``) takes grid values back.  A kernel refuses a
non-real field with a ValueError (``_require_real``).
"""

from __future__ import annotations

import functools

import numpy as np

from . import analytic as _an
from .errors import AliasingError, NonContractionError, SeriesRadiusError
from .lattice import get_enumeration

_TWO_PI = 2.0 * np.pi
_FLOOR = 8e-16  # coefficients at or below this share of the largest are rounding noise
ALIAS_TOL = 1e-7  # aliasing share of a grid pass beyond which it raises AliasingError


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    m = max(n, 1)
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _axis_size(factor, bound: int) -> int:
    return next_fast_len(max(2, int(factor)) * (2 * bound + 1) + 1)


def phi_sizes(lattice, factor: int = 2) -> tuple:
    return tuple(_axis_size(factor, b) for b in get_enumeration(lattice).bounds)


def grid_sizes(lattice, jmax: int, factor: int = 2) -> tuple:
    return phi_sizes(lattice, factor) + (_axis_size(factor, jmax),)


def _grid_index(lattice, sizes):
    """Grid position of every lattice index on the phi axes of a grid of shape
    ``sizes``, in FFT order: a tuple of index arrays that selects the
    (enum.size, ...) rows of the lattice."""
    dense = get_enumeration(lattice).dense
    return tuple(dense[:, i] % sizes[i] for i in range(lattice.M))


def _rfft_weights(n: int):
    """How often each rfft column of a length-n axis occurs in the full spectrum."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def _place(u, sphi, ncols):
    """FFT-ordered spectrum over the phi grid ``sphi`` of a real u's x-modes
    j = 0 .. ncols - 1 (zero beyond jmax); the modes j < 0 are their conjugates."""
    k = min(u.jmax + 1, ncols)
    spec = np.zeros(sphi + (ncols,), dtype=complex)
    spec[_grid_index(u.lattice, sphi) + (slice(k),)] = u.data[:, u.jmax:u.jmax + k]
    return spec


def _require_real(u, what):
    """Raise a ValueError naming ``what`` unless u is real."""
    if not u.real:
        raise ValueError(f"{what} must be real-on-real")


def _real_grid_values(u, sizes, what):
    """Values of a real u on the grid ``sizes`` (x axis of one point for a
    function of phi alone)."""
    _require_real(u, what)
    nx = sizes[-1]
    return _to_x_grid(_x_spectrum(u, sizes[:-1], min(u.jmax, nx // 2) + 1), nx)


def _signed_freqs(n: int):
    return (np.arange(n) + n // 2) % n - n // 2


def _extract(vals, lattice, jmax, *, alias_tol, context, report=None):
    """Re-expand real grid values into a truncated real AnalyticFunction.

    The values are transformed with ``rfftn``: the masses weight each
    half-spectrum column by its multiplicity, and the x-modes j < 0 are the
    conjugates of the modes j >= 0 at the negated lattice index.  Values of a
    function of phi alone lie on an x axis of one point, whose one column is
    the mode j = 0.
    """
    sizes = vals.shape
    spec = np.fft.rfftn(vals) / float(np.prod(sizes))
    absspec = np.abs(spec)
    floor = _FLOOR * float(absspec.max(initial=0.0))
    absspec *= _rfft_weights(sizes[-1])
    total = float(absspec.sum())
    caps = [2 * b for b in get_enumeration(lattice).bounds] + [2 * jmax]
    outer = functools.reduce(np.logical_or, np.meshgrid(
        *[np.abs(_signed_freqs(n))[:k] > cap for n, k, cap in zip(sizes, spec.shape, caps)],
        indexing="ij", sparse=True))
    alias_rel = float(absspec[np.broadcast_to(outer, spec.shape)].sum()) / max(total, 1e-300)

    enum = get_enumeration(lattice)
    k = min(jmax + 1, spec.shape[-1])
    data = np.zeros((enum.size, 2 * jmax + 1), dtype=complex)
    data[:, jmax:jmax + k] = spec[_grid_index(lattice, sizes) + (slice(k),)]
    data[:, :jmax] = np.conj(data[enum.neg, :jmax:-1])
    data[np.abs(data) <= floor] = 0.0
    retained = float(np.abs(data).sum())
    if report is not None:
        report["alias_rel"] = alias_rel
        report["discard_rel"] = (total - retained) / max(total, 1e-300)
    if alias_rel > alias_tol:
        raise AliasingError(
            f"aliasing energy {alias_rel:.3e} exceeds {alias_tol:.3e} in {context}",
            alias_rel=alias_rel,
            context=context,
        )
    return _an.AnalyticFunction.from_array(lattice, jmax, data)


def _angles(sizes):
    """2 pi k / n on each axis of a tensor grid, shaped to broadcast over it."""
    return np.meshgrid(*[_TWO_PI * np.arange(n) / n for n in sizes], indexing="ij", sparse=True)


def _x_spectrum(u, sphi, ncols=None):
    """x-spectrum of a real u over the phi grid: its x-modes j = 0 .. ncols - 1
    (every j >= 0 by default; ``_place``) inverse-transformed in phi."""
    spec = _place(u, sphi, u.jmax + 1 if ncols is None else ncols)
    return np.fft.ifftn(spec, axes=tuple(range(u.lattice.M))) * float(np.prod(sphi))


def _to_x_grid(T, nx):
    """Real x-grid values of a real field's x-spectrum T (``_x_spectrum``)."""
    return np.fft.irfft(T, n=nx, axis=-1) * nx


def _horner(H, V):
    """sum_{k>=1} H_k V^k with H_k = H[..., k-1], by Horner's rule in V from the
    highest nonzero H_k; 0 when H is zero."""
    held = np.flatnonzero(np.any(H, axis=tuple(range(H.ndim - 1))))
    if held.size == 0:
        return 0.0
    acc = H[..., held[-1], None] * V
    for k in range(held[-1] - 1, -1, -1):
        acc += H[..., k, None]
        acc *= V
    return acc


def _x_series(G, W):
    """sum_j G_j W^j over the x-modes of a real field's x-spectrum G
    (``_x_spectrum``) on the grid of W: the real G_0 + 2 Re sum_{j>=1} G_j W^j
    (|W| = 1 makes the mode -j term the conjugate of the mode j term)."""
    val = G[..., 0, None].real + 2.0 * np.real(_horner(G[..., 1:], W))
    return np.broadcast_to(val, W.shape)


# Phase factors e^{i l.Phi} that _phi_series builds at once: rows of them up to
# this many entries (1 MB complex; one row when a row is longer).  On step 0's
# push_quadratic pass of solve_m3 at omega seed 7 (4860 phi points, 11 fields;
# in-process, one BLAS thread, median of 6 calls), 2^12 (one row a chunk),
# 2^14, 2^16 and 2^18 took 0.90, 0.54, 0.47 and 0.47 s, with traced peaks
# 19.1 MB up to 2^16 and 20.9 MB at 2^18.
PHASE_POINTS = 2 ** 16


def _cis(angle):
    """e^{i angle} for a real array, from its cosine and sine."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _phi_series(lattice, cols, shift, omega, sphi):
    """x-spectrum over the phi grid of u(phi + omega * shift(phi), .) for a u
    given by its coefficient columns (one row per lattice index).

    With Phi_s = phi_s + omega_s shift on each axis s, the spectrum is
    sum_l e^{i l.Phi} u_l, a product of the (rows x points) phase factors
    and the columns.  A factor is a product over the axes of powers of
    e^{i Phi_s} (the negative powers their conjugates), built a chunk of rows
    at a time.
    """
    enum = get_enumeration(lattice)
    flat_shift = np.reshape(shift, -1)
    powers = []
    for ax, b, om in zip(_angles(sphi), enum.bounds, omega):
        Z = _cis(np.broadcast_to(ax, sphi).reshape(-1) + om * flat_shift)
        P = np.empty((2 * b + 1, Z.size), dtype=complex)
        P[b] = 1.0
        for k in range(1, b + 1):
            P[b + k] = P[b + k - 1] * Z
        P[:b] = np.conj(P[:b:-1])
        powers.append(P)
    slots = enum.dense + np.asarray(enum.bounds)
    step = max(1, PHASE_POINTS // flat_shift.size)
    T = np.zeros((flat_shift.size, cols.shape[1]), dtype=complex)
    for lo in range(0, enum.size, step):
        rows = slice(lo, lo + step)
        E = powers[0][slots[rows, 0]]
        for P, col in zip(powers[1:], slots[rows, 1:].T):
            E *= P[col]
        T += E.T @ cols[rows]
    return T.reshape(sphi + (cols.shape[1],))


def _fixed_point(update, shape, tol, max_iter, what):
    """Picard iteration t <- update(t) from t = 0; returns t and the last step."""
    t = np.zeros(shape)
    last = np.inf
    for _ in range(max_iter):
        new = update(t)
        step = float(np.max(np.abs(new - t)))
        t = new
        if step <= tol:
            return t, step
        if step > 2.0 * last + tol:
            raise NonContractionError(f"{what} inversion diverged")
        last = step
    raise NonContractionError(f"no contraction after {max_iter} iterations")


def compose_x_diffeo(u, alpha, factor=2, alias_tol=ALIAS_TOL, report=None):
    """u(phi, x + alpha(phi, x)), exact for alpha = 0 on the retained modes."""
    if u.lattice != alpha.lattice:
        raise ValueError("incompatible lattices")
    _require_real(u, "composed field")
    sizes = grid_sizes(u.lattice, max(u.jmax, alpha.jmax), factor)
    avals = _real_grid_values(alpha, sizes, "x-diffeomorphism amplitude")
    W = np.exp(1j * (_angles(sizes)[-1] + avals))
    return _extract(_x_series(_x_spectrum(u, sizes[:-1]), W), u.lattice, u.jmax,
                    alias_tol=alias_tol, context="compose_x_diffeo", report=report)


def compose_phi_shift(u, beta, omega, factor=2, alias_tol=ALIAS_TOL, report=None):
    """u(phi + omega beta(phi), x) for a real function beta of phi alone."""
    if u.lattice != beta.lattice:
        raise ValueError("incompatible lattices")
    if not beta.phi_only:
        raise ValueError("shift amplitude must depend on phi only")
    _require_real(u, "composed field")
    sizes = grid_sizes(u.lattice, u.jmax, factor)
    bvals = _real_grid_values(beta, sizes[:-1] + (1,), "time-reparametrization amplitude")[..., 0]
    T = _phi_series(u.lattice, u.data[:, u.jmax:], bvals, omega, sizes[:-1])
    return _extract(_to_x_grid(T, sizes[-1]), u.lattice, u.jmax,
                    alias_tol=alias_tol, context="compose_phi_shift", report=report)


def compose_x_translation(u, p, factor=2, alias_tol=ALIAS_TOL, report=None):
    """u(phi, x + p(phi)) for a real function p of phi alone.

    The phases e^{i j p} multiply the x-spectrum on the phi grid, not on the
    full grid as in ``_x_series``; one x-transform follows.
    """
    if u.lattice != p.lattice:
        raise ValueError("incompatible lattices")
    if not p.phi_only:
        raise ValueError("translation amplitude must depend on phi only")
    _require_real(u, "composed field")
    sizes = grid_sizes(u.lattice, u.jmax, factor)
    pvals = _real_grid_values(p, sizes[:-1] + (1,), "translation amplitude")
    phase = np.exp(1j * pvals * np.arange(u.jmax + 1))
    return _extract(_to_x_grid(_x_spectrum(u, sizes[:-1]) * phase, sizes[-1]), u.lattice, u.jmax,
                    alias_tol=alias_tol, context="compose_x_translation", report=report)


def _held(a):
    return a is not None and not a.is_zero()


def _stack_grid(fields, alpha, beta, p, factor):
    """Grid of a stacked substitution, after refusing what it cannot
    substitute; None when nothing moves (no field, or no amplitude held)."""
    for u in fields:
        _require_real(u, "substituted field")
    lattices = {u.lattice for u in fields}
    for a, what in ((alpha, "x-diffeomorphism amplitude"),
                    (beta, "time-reparametrization amplitude"), (p, "translation amplitude")):
        if a is not None:
            _require_real(a, what)
            if a is not alpha and not a.phi_only:
                raise ValueError(f"{what} must depend on phi only")
            lattices.add(a.lattice)
    if len(lattices) > 1:
        raise ValueError("incompatible lattices")
    if not fields or not (_held(alpha) or _held(beta) or _held(p)):
        return None
    jmax = max([u.jmax for u in fields] + ([alpha.jmax] if _held(alpha) else []))
    return grid_sizes(fields[0].lattice, jmax, factor)


def _spectrum(u, sphi, shift, omega):
    """x-spectrum over the phi grid of a real field at phi + omega shift(phi),
    or at phi for no shift."""
    if shift is None:
        return _x_spectrum(u, sphi)
    return _phi_series(u.lattice, u.data[:, u.jmax:], shift, omega, sphi)


def _phi_values(f, sphi, shift=None, omega=None):
    """Values of a real function f of phi alone at phi + omega shift(phi) (at
    phi for no shift) on the phi grid."""
    if shift is None:
        T = _x_spectrum(f, sphi, 1)
    else:
        T = _phi_series(f.lattice, f.data[:, f.jmax:f.jmax + 1], shift, omega, sphi)
    return _to_x_grid(T, 1)[..., 0]


def _grid_values(T, W, c, nx):
    """Real grid values at (phi, X) of a field with x-spectrum T over the phi
    grid: a Horner sum in W = e^{iX} or, without W, the phase e^{i j c(phi)}
    of X = x + c (no phase for c None) and one x-transform."""
    if W is not None:
        return _x_series(T, W)
    if c is not None:
        T = T * np.exp(1j * c[..., None] * np.arange(T.shape[-1]))
    return _to_x_grid(T, nx)


def _exp_ix(a, c, sizes):
    """W = e^{iX} on the grid for X = x + c(phi) + a(phi, x); overwrites a."""
    a += _angles(sizes)[-1]
    if c is not None:
        a += c[..., None]
    return _cis(a)


def _substitute(fields, sizes, omega, shift, c, W, context, report):
    """Every field u at (phi + omega shift(phi), X), truncated back to u's
    modes, with X given by W or c as in ``_grid_values``."""
    out = []
    for u in fields:
        vals = _grid_values(_spectrum(u, sizes[:-1], shift, omega), W, c, sizes[-1])
        rep = {}
        out.append(_extract(vals, u.lattice, u.jmax, alias_tol=ALIAS_TOL,
                            context=context, report=rep))
        if report is not None:
            for key in ("alias_rel", "discard_rel"):
                report["max_" + key] = max(report.get("max_" + key, 0.0), rep[key])
    return out


def substitute(fields, alpha, beta, p, omega, factor=2, report=None):
    """Each real u of ``fields`` at (Phi, x + alpha(phi, x) + p(Phi)) with
    Phi = phi + omega beta(phi): the substitution of the forward change of
    variables ``conjugation.apply_transform``.

    beta and p are functions of phi alone.  An amplitude that is None or zero
    drops out, and with all three absent the fields come back unchanged.
    ``report`` receives the largest ``alias_rel`` and ``discard_rel`` of the
    pass as ``max_alias_rel`` and ``max_discard_rel``.
    """
    fields = list(fields)
    sizes = _stack_grid(fields, alpha, beta, p, factor)
    if sizes is None:
        return fields
    sphi = sizes[:-1]
    shift = _phi_values(beta, sphi) if _held(beta) else None
    c = _phi_values(p, sphi, shift, omega) if _held(p) else None
    W = None
    if _held(alpha):
        W = _exp_ix(_real_grid_values(alpha, sizes, "x-diffeomorphism amplitude"), c, sizes)
        c = None
    return _substitute(fields, sizes, omega, shift, c, W, "substitute", report)


def substitute_inverse(fields, alpha_tilde, beta_tilde, p, omega, factor=2, report=None):
    """Each real u of ``fields`` at (Phi, y + alpha~(Phi, y)) with
    Phi = phi + omega beta~(phi) and y = x - p(phi): the substitution of the
    inverse change of variables ``conjugation.apply_transform_inverse``.

    The three substitutions x -> x + alpha~, phi -> phi + omega beta~ and
    x -> x - p, applied one after the other, compose to this one map, which
    is evaluated in one grid pass and truncated once.  Amplitudes and
    ``report`` are as in ``substitute``.
    """
    fields = list(fields)
    sizes = _stack_grid(fields, alpha_tilde, beta_tilde, p, factor)
    if sizes is None:
        return fields
    sphi = sizes[:-1]
    shift = _phi_values(beta_tilde, sphi) if _held(beta_tilde) else None
    c = -_phi_values(p, sphi) if _held(p) else None
    W = None
    if _held(alpha_tilde):
        a = _grid_values(_spectrum(alpha_tilde, sphi, shift, omega), None, c, sizes[-1])
        W = _exp_ix(a, c, sizes)            # y + alpha~(Phi, y) = x + c + a
        c = a = None
    return _substitute(fields, sizes, omega, shift, c, W, "substitute_inverse", report)


def invert_x_diffeo(alpha, factor=2, tol=1e-13, max_iter=100, alias_tol=ALIAS_TOL, report=None):
    """alpha_tilde with x + alpha evaluated at y + alpha_tilde(phi, y) == y.

    Fixed point alpha_tilde = -alpha(phi, y + alpha_tilde) of the forward
    kernel, pointwise on the grid, for a real alpha; requires the contraction
    |alpha_x|_0 < 1 and raises NonContractionError otherwise.
    """
    _require_real(alpha, "x-diffeomorphism amplitude")
    slope = _an.dx(alpha, 1).norm(0.0)
    if slope >= 0.9:
        raise NonContractionError(f"|alpha_x| ~ {slope:.3f} too large to invert")
    sizes = grid_sizes(alpha.lattice, alpha.jmax, factor)
    A = _x_spectrum(alpha, sizes[:-1])
    y = _angles(sizes)[-1]
    t, step = _fixed_point(
        lambda t: -_x_series(A, np.exp(1j * (y + t))),
        sizes, tol, max_iter, "x-diffeomorphism",
    )
    out = _extract(t, alpha.lattice, alpha.jmax, alias_tol=alias_tol,
                   context="invert_x_diffeo", report=report)
    if report is not None:
        report["fixed_point_residual"] = step
    return out


def invert_phi_shift(beta, omega, factor=2, tol=1e-13, max_iter=100, alias_tol=ALIAS_TOL,
                     report=None):
    """beta_tilde with phi + omega beta evaluated at theta + omega beta_tilde == theta.

    Fixed point beta_tilde = -beta(theta + omega beta_tilde) of the forward
    kernel on the phi grid.
    """
    _require_real(beta, "shift amplitude")
    if not beta.phi_only:
        raise ValueError("shift amplitude must depend on phi only")
    coef = beta.data[:, beta.jmax]
    slope = float(np.sum(np.abs(get_enumeration(beta.lattice).dots(omega)) * np.abs(coef)))
    if slope >= 0.9:
        raise NonContractionError(f"|omega.d_phi beta| ~ {slope:.3f} too large to invert")
    sphi = phi_sizes(beta.lattice, factor)
    s, step = _fixed_point(
        lambda s: -_phi_values(beta, sphi, s[..., 0], omega)[..., None],
        sphi + (1,), tol, max_iter, "phi-shift",
    )
    out = _extract(s, beta.lattice, beta.jmax, alias_tol=alias_tol,
                   context="invert_phi_shift", report=report)
    if report is not None:
        report["fixed_point_residual"] = step
    return out


def moser_compose(series, u, factor=2, alias_tol=ALIAS_TOL, report=None):
    """fn(u) by pointwise grid evaluation, for a real u with |u|_0 strictly
    inside the radius."""
    r = u.norm(0.0)
    if r >= series.radius:
        raise SeriesRadiusError(
            f"|u|_0 = {r:.3e} is not inside the convergence radius {series.radius:.3e}"
            + (f" of {series.label}" if series.label else "")
        )
    sizes = grid_sizes(u.lattice, u.jmax, factor)
    if u.phi_only:
        sizes = sizes[:-1] + (1,)
    vals = series.fn(_real_grid_values(u, sizes, "scalar-series argument"))
    return _extract(vals, u.lattice, u.jmax, alias_tol=alias_tol,
                    context="moser_compose", report=report)
