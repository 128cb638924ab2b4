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
where Phi = phi + omega beta(phi).  A call builds the amplitudes' grid values,
the phase factors e^{i l.Phi} of the lattice rows (``_phases``) and
W = e^{iX} once for the whole stack.  Each field then costs one
``_phi_series`` (its x-spectrum at Phi, one product with the phase factors),
one Horner sum in W (``_x_series``; a phase and an x-transform when X - x
depends on phi alone) and one ``_extract``.  A pass may also combine the
moved fields pointwise before anything is extracted (``combine`` of
``substitute_inverse``): it then extracts the combination's outputs, each
once, in place of the fields, and draws each moved field only when the
combination asks for it, so the stack is never on the grid at once.  The
single-field kernels ``compose_x_diffeo``, ``compose_phi_shift`` and
``compose_x_translation`` no longer run in a solve: they stay as the
independent implementation whose chain, truncated after each kernel, is the
tests' oracle, and as the names the perfbench tracer wraps.  An inverse is
the fixed point of its forward map (alpha~ = -alpha(phi, y + alpha~) and
beta~ = -beta(theta + omega beta~)), found by the one Picard loop
``_fixed_point``; a step of the phi-shift inverse forms its one-column
product with the phase factors a chunk of points at a time
(``_shifted_phi_values``).  ``moser_compose`` evaluates a scalar series
pointwise.

Every grid field has one layout.  Every AnalyticFunction is real-on-real,
so every field is real, and on the grid sphi x nx it is carried by its
x-modes j >= 0: the terms of mode -j are the conjugates of those of mode j,
so a kernel sums only the modes j >= 0 and a grid field is
G_0 + 2 Re sum_{j>=1} G_j W^j.  A function of phi alone is a
field whose x axis has one point (nx = 1).  One placement (``_place``) puts
the modes j >= 0 in FFT order over the phi grid, one evaluation
(``_to_x_grid``, an ``irfft`` in x) gives every amplitude and series
argument its grid values from its ``_x_spectrum``, and one extraction
(``_extract``, an ``rfftn``) takes grid values back.
"""

from __future__ import annotations

import functools

import numpy as np

from . import analytic as _an
from ._accel import NOISE_FLOOR, next_fast_len
from .errors import AliasingError, NonContractionError, SeriesRadiusError
from .lattice import get_enumeration

_TWO_PI = 2.0 * np.pi
ALIAS_TOL = 1e-7  # aliasing share of a grid pass beyond which it raises AliasingError
# An inversion's Picard loop stops at a step of at most FIXED_POINT_TOL on the
# grid and raises NonContractionError after FIXED_POINT_MAX_ITER steps.
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 100


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


def _real_grid_values(u, sizes):
    """Values of u on the grid ``sizes`` (x axis of one point for a function
    of phi alone)."""
    nx = sizes[-1]
    return _to_x_grid(_x_spectrum(u, sizes[:-1], min(u.jmax, nx // 2) + 1), nx)


def _signed_freqs(n: int):
    return (np.arange(n) + n // 2) % n - n // 2


def _extract(vals, lattice, jmax, *, context, report=None):
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
    floor = NOISE_FLOOR * float(absspec.max(initial=0.0))
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
    if alias_rel > ALIAS_TOL:
        raise AliasingError(
            f"aliasing energy {alias_rel:.3e} exceeds {ALIAS_TOL:.3e} in {context}",
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


def _cis(angle):
    """e^{i angle} for a real array, from its cosine and sine."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _axis_powers(lattice, shift, omega, sphi):
    """Powers e^{i k Phi_s}, |k| <= b_s, on each axis s at every point of the
    phi grid, Phi_s = phi_s + omega_s shift(phi): one (2 b_s + 1) x points
    array per axis, power k in row k + b_s (the negative powers the
    conjugates)."""
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
    return powers


def _row_phases(lattice, powers, points):
    """Phase factors e^{i l.Phi} of every lattice row l at the ``points`` (a
    slice of the flattened phi grid): a (rows x points) array, the product
    over the axes of the rows' powers (``_axis_powers``)."""
    enum = get_enumeration(lattice)
    E = None
    for P, b, slots in zip(powers, enum.bounds, enum.dense.T):
        if E is None:
            E = P[slots + b, points]
        else:
            E *= P[slots + b, points]
    return E


def _phases(lattice, shift, omega, sphi):
    """Phase factors e^{i l.Phi} of every lattice row l at every point of the
    phi grid, Phi_s = phi_s + omega_s shift(phi) on each axis s: a
    (rows x points) array."""
    return _row_phases(lattice, _axis_powers(lattice, shift, omega, sphi), slice(None))


def _phi_series(E, cols, sphi):
    """x-spectrum over the phi grid of sum_l e^{i l.Phi} u_l for a u given by
    its coefficient columns (one row per lattice index), at the points whose
    phase factors are E (``_phases``)."""
    return (E.T @ cols).reshape(sphi + (cols.shape[1],))


def _fixed_point(update, shape, what):
    """Picard iteration t <- update(t) from t = 0; returns t and the last step."""
    t = np.zeros(shape)
    last = np.inf
    for _ in range(FIXED_POINT_MAX_ITER):
        new = update(t)
        step = float(np.max(np.abs(new - t)))
        t = new
        if step <= FIXED_POINT_TOL:
            return t, step
        if step > 2.0 * last + FIXED_POINT_TOL:
            raise NonContractionError(f"{what} inversion diverged")
        last = step
    raise NonContractionError(f"no contraction after {FIXED_POINT_MAX_ITER} iterations")


def compose_x_diffeo(u, alpha, factor=2, report=None):
    """u(phi, x + alpha(phi, x)), exact for alpha = 0 on the retained modes."""
    if u.lattice != alpha.lattice:
        raise ValueError("incompatible lattices")
    sizes = grid_sizes(u.lattice, max(u.jmax, alpha.jmax), factor)
    avals = _real_grid_values(alpha, sizes)
    W = np.exp(1j * (_angles(sizes)[-1] + avals))
    return _extract(_x_series(_x_spectrum(u, sizes[:-1]), W), u.lattice, u.jmax,
                    context="compose_x_diffeo", report=report)


def compose_phi_shift(u, beta, omega, factor=2, report=None):
    """u(phi + omega beta(phi), x) for a real function beta of phi alone."""
    if u.lattice != beta.lattice:
        raise ValueError("incompatible lattices")
    if not beta.phi_only:
        raise ValueError("shift amplitude must depend on phi only")
    sizes = grid_sizes(u.lattice, u.jmax, factor)
    sphi = sizes[:-1]
    bvals = _real_grid_values(beta, sphi + (1,))[..., 0]
    T = _phi_series(_phases(u.lattice, bvals, omega, sphi), u.data[:, u.jmax:], sphi)
    return _extract(_to_x_grid(T, sizes[-1]), u.lattice, u.jmax,
                    context="compose_phi_shift", report=report)


def compose_x_translation(u, p, factor=2, report=None):
    """u(phi, x + p(phi)) for a real function p of phi alone.

    The phases e^{i j p} multiply the x-spectrum on the phi grid, not on the
    full grid as in ``_x_series``; one x-transform follows.
    """
    if u.lattice != p.lattice:
        raise ValueError("incompatible lattices")
    if not p.phi_only:
        raise ValueError("translation amplitude must depend on phi only")
    sizes = grid_sizes(u.lattice, u.jmax, factor)
    pvals = _real_grid_values(p, sizes[:-1] + (1,))
    phase = np.exp(1j * pvals * np.arange(u.jmax + 1))
    return _extract(_to_x_grid(_x_spectrum(u, sizes[:-1]) * phase, sizes[-1]), u.lattice, u.jmax,
                    context="compose_x_translation", report=report)


def _held(a):
    return a is not None and not a.is_zero()


def _moves(alpha, beta, p):
    return _held(alpha) or _held(beta) or _held(p)


def _stack_grid(fields, alpha, beta, p, factor):
    """Grid of a stacked substitution, after refusing what it cannot
    substitute; None for an empty stack."""
    lattices = {u.lattice for u in fields}
    for a, what in ((alpha, "x-diffeomorphism amplitude"),
                    (beta, "time-reparametrization amplitude"), (p, "translation amplitude")):
        if a is not None:
            if a is not alpha and not a.phi_only:
                raise ValueError(f"{what} must depend on phi only")
            lattices.add(a.lattice)
    if len(lattices) > 1:
        raise ValueError("incompatible lattices")
    if not fields:
        return None
    jmax = max([u.jmax for u in fields] + ([alpha.jmax] if _held(alpha) else []))
    return grid_sizes(fields[0].lattice, jmax, factor)


def _spectrum(u, sphi, E):
    """x-spectrum over the phi grid of a real field at the points whose phase
    factors are E (``_phases``), or at phi for E None."""
    if E is None:
        return _x_spectrum(u, sphi)
    return _phi_series(E, u.data[:, u.jmax:], sphi)


def _phi_values(f, sphi, E=None):
    """Values on the phi grid of a real function f of phi alone, at the points
    whose phase factors are E (at phi for E None)."""
    if E is None:
        return _real_grid_values(f, sphi + (1,))[..., 0]
    return _to_x_grid(_phi_series(E, f.data[:, f.jmax:f.jmax + 1], sphi), 1)[..., 0]


def _shifted_phi_values(f, shift, omega, sphi):
    """Values on the phi grid of a real function f of phi alone at
    phi + omega shift(phi).  The one-column product with the phase factors is
    formed a chunk of points at a time, with at most 2^16 factors (1 MB) in a
    chunk, so the whole (rows x points) matrix is never built."""
    powers = _axis_powers(f.lattice, shift, omega, sphi)
    points = powers[0].shape[1]
    step = max(1, 2 ** 16 // get_enumeration(f.lattice).size)
    col = f.data[:, f.jmax:f.jmax + 1]
    T = np.empty((points, 1), dtype=complex)
    for lo in range(0, points, step):
        chunk = slice(lo, lo + step)
        T[chunk] = _row_phases(f.lattice, powers, chunk).T @ col
    return _to_x_grid(T.reshape(sphi + (1,)), 1)[..., 0]


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


def _substitute(fields, sizes, E, c, W, context, report, combine=None):
    """Every field u at the points (Phi, X), Phi given by its phase factors E
    and X by W or c as in ``_grid_values``, truncated back to u's modes; with
    ``combine``, its outputs instead (``substitute_inverse``)."""
    moved = (_grid_values(_spectrum(u, sizes[:-1], E), W, c, sizes[-1]) for u in fields)
    if combine is None:
        outputs = zip(moved, [u.jmax for u in fields])
    else:
        jmax = max(u.jmax for u in fields)
        outputs = ((vals, jmax) for vals in combine(moved, sizes))
    out = []
    for vals, jmax in outputs:
        rep = {}
        out.append(_extract(vals, fields[0].lattice, jmax, context=context, report=rep))
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
    if sizes is None or not _moves(alpha, beta, p):
        return fields
    sphi = sizes[:-1]
    E = _phases(fields[0].lattice, _phi_values(beta, sphi), omega, sphi) if _held(beta) else None
    c = _phi_values(p, sphi, E) if _held(p) else None
    W = None
    if _held(alpha):
        W = _exp_ix(_real_grid_values(alpha, sizes), c, sizes)
        c = None
    return _substitute(fields, sizes, E, c, W, "substitute", report)


def substitute_inverse(fields, alpha_tilde, beta_tilde, p, omega, factor=2, report=None,
                       combine=None):
    """Each real u of ``fields`` at (Phi, y + alpha~(Phi, y)) with
    Phi = phi + omega beta~(phi) and y = x - p(phi): the substitution of the
    inverse change of variables ``conjugation.apply_transform_inverse``.

    The three substitutions x -> x + alpha~, phi -> phi + omega beta~ and
    x -> x - p, applied one after the other, compose to this one map, which
    is evaluated in one grid pass and truncated once.  Amplitudes and
    ``report`` are as in ``substitute``.

    With ``combine`` the pass returns what ``combine(moved, sizes)`` forms
    pointwise from the moved fields, not the fields: ``moved`` iterates over
    the fields' grid values at the moved points, in stack order, each
    evaluated when it is drawn, and ``combine`` yields real grid values on
    the grid ``sizes``, each extracted to the stack's largest jmax as soon
    as it is yielded.  It runs also when nothing moves.
    """
    fields = list(fields)
    sizes = _stack_grid(fields, alpha_tilde, beta_tilde, p, factor)
    if sizes is None or (combine is None and not _moves(alpha_tilde, beta_tilde, p)):
        return fields
    sphi = sizes[:-1]
    E = (_phases(fields[0].lattice, _phi_values(beta_tilde, sphi), omega, sphi)
         if _held(beta_tilde) else None)
    c = -_phi_values(p, sphi) if _held(p) else None
    W = None
    if _held(alpha_tilde):
        a = _grid_values(_spectrum(alpha_tilde, sphi, E), None, c, sizes[-1])
        W = _exp_ix(a, c, sizes)            # y + alpha~(Phi, y) = x + c + a
        c = a = None
    return _substitute(fields, sizes, E, c, W, "substitute_inverse", report, combine)


def invert_x_diffeo(alpha, factor=2, report=None):
    """alpha_tilde with x + alpha evaluated at y + alpha_tilde(phi, y) == y.

    Fixed point alpha_tilde = -alpha(phi, y + alpha_tilde) of the forward
    kernel, pointwise on the grid, for a real alpha; requires the contraction
    |alpha_x|_0 < 1 and raises NonContractionError otherwise.
    """
    slope = _an.dx(alpha, 1).norm(0.0)
    if slope >= 0.9:
        raise NonContractionError(f"|alpha_x| ~ {slope:.3f} too large to invert")
    sizes = grid_sizes(alpha.lattice, alpha.jmax, factor)
    A = _x_spectrum(alpha, sizes[:-1])
    y = _angles(sizes)[-1]
    t, step = _fixed_point(
        lambda t: -_x_series(A, np.exp(1j * (y + t))),
        sizes, "x-diffeomorphism",
    )
    out = _extract(t, alpha.lattice, alpha.jmax, context="invert_x_diffeo", report=report)
    if report is not None:
        report["fixed_point_residual"] = step
    return out


def invert_phi_shift(beta, omega, factor=2, report=None):
    """beta_tilde with phi + omega beta evaluated at theta + omega beta_tilde == theta.

    Fixed point beta_tilde = -beta(theta + omega beta_tilde) of the forward
    kernel on the phi grid.
    """
    if not beta.phi_only:
        raise ValueError("shift amplitude must depend on phi only")
    coef = beta.data[:, beta.jmax]
    slope = float(np.sum(np.abs(get_enumeration(beta.lattice).dots(omega)) * np.abs(coef)))
    if slope >= 0.9:
        raise NonContractionError(f"|omega.d_phi beta| ~ {slope:.3f} too large to invert")
    sphi = phi_sizes(beta.lattice, factor)
    s, step = _fixed_point(
        lambda s: -_shifted_phi_values(beta, s[..., 0], omega, sphi)[..., None],
        sphi + (1,), "phi-shift",
    )
    out = _extract(s, beta.lattice, beta.jmax, context="invert_phi_shift", report=report)
    if report is not None:
        report["fixed_point_residual"] = step
    return out


def moser_compose(series, u, factor=2, report=None):
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
    vals = series.fn(_real_grid_values(u, sizes))
    return _extract(vals, u.lattice, u.jmax, context="moser_compose", report=report)
