"""Oversampled collocation grids: composition with diffeomorphisms, inverses,
and scalar-series composition.

All transforms follow the same pattern: evaluate on a tensor grid that
oversamples the retained modes (at least 2*(modes per axis)+1 points), apply
the substitution pointwise, transform back with an FFT and re-truncate.  The
mass found outside the doubled frequency band is reported as aliasing energy
and raises AliasingError beyond tolerance.
"""

from __future__ import annotations

import numpy as np

from . import analytic as _an
from .errors import AliasingError, NonContractionError, SeriesRadiusError
from .lattice import get_enumeration

_TWO_PI = 2.0 * np.pi


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    if n <= 1:
        return 1
    best = None
    p2 = 1
    while p2 < 16 * n:
        p23 = p2
        while p23 < 16 * n:
            p235 = p23
            while p235 < n:
                p235 *= 5
            if best is None or p235 < best:
                best = p235
            p23 *= 3
        p2 *= 2
    return best


def site_bounds(lattice) -> list:
    return [lattice.site_bound(s) for s in range(1, lattice.M + 1)]


def phi_sizes(lattice, factor: int = 2) -> tuple:
    f = max(2, int(factor))
    return tuple(next_fast_len(f * (2 * b + 1) + 1) for b in site_bounds(lattice))


def grid_sizes(lattice, jmax: int, factor: int = 2) -> tuple:
    f = max(2, int(factor))
    return phi_sizes(lattice, factor) + (next_fast_len(f * (2 * jmax + 1) + 1),)


def _grid_index(lattice, sizes, jmax=None):
    """Grid position of every (lattice index[, x-mode]) in FFT order.

    Returns a tuple of index arrays that selects an (enum.size,) array of the
    phi grid, or with ``jmax`` an (enum.size, 2*jmax+1) array of the full grid.
    """
    dense = get_enumeration(lattice).dense
    idx = tuple(dense[:, i] % sizes[i] for i in range(lattice.M))
    if jmax is None:
        return idx
    jcol = np.arange(-jmax, jmax + 1) % sizes[-1]
    return tuple(ix[:, None] for ix in idx) + (jcol[None, :],)


def _place(u, sizes, with_x: bool):
    """Dense FFT-ordered spectrum of u on the given grid shape."""
    spec = np.zeros(sizes, dtype=complex)
    if with_x:
        spec[_grid_index(u.lattice, sizes, u.jmax)] = u.data
    elif not u.phi_only:
        raise ValueError("phi-grid placement requires a function of phi only")
    else:
        spec[_grid_index(u.lattice, sizes)] = u.data[:, u.jmax]
    return spec


def grid_values(u, sizes, with_x: bool = True):
    spec = _place(u, sizes, with_x)
    return np.fft.ifftn(spec) * float(np.prod(sizes))


def _real_grid_values(u, sizes, with_x, what):
    if not u.real:
        raise ValueError(f"{what} must be real-on-real")
    vals = grid_values(u, sizes, with_x)
    scale = float(np.max(np.abs(vals.real))) + 1.0
    if float(np.max(np.abs(vals.imag))) > 1e-9 * scale:
        raise ValueError(f"{what} evaluates with non-negligible imaginary part")
    return vals.real


def _signed_freqs(n: int):
    return (np.arange(n) + n // 2) % n - n // 2


def _extract(vals, lattice, jmax, *, real, alias_tol, context, report=None, with_x=True):
    """Re-expand grid values into a truncated AnalyticFunction."""
    sizes = vals.shape
    spec = np.fft.fftn(vals) / float(np.prod(sizes))
    absspec = np.abs(spec)
    total = float(absspec.sum())
    bounds = site_bounds(lattice)

    masks = []
    for ax, n in enumerate(sizes):
        cap = 2 * bounds[ax] if (ax < lattice.M) else 2 * jmax
        f = np.abs(_signed_freqs(n))
        shape = [1] * len(sizes)
        shape[ax] = n
        masks.append((f > cap).reshape(shape))
    outer = masks[0]
    for mk in masks[1:]:
        outer = outer | mk
    alias = float(absspec[np.broadcast_to(outer, sizes)].sum())
    alias_rel = alias / max(total, 1e-300)

    floor = 8e-16 * float(absspec.max(initial=0.0))
    data = np.zeros((get_enumeration(lattice).size, 2 * jmax + 1), dtype=complex)
    if with_x:
        data[:] = spec[_grid_index(lattice, sizes, jmax)]
    else:
        data[:, jmax] = spec[_grid_index(lattice, sizes)]
    kept = np.abs(data) > floor
    data[~kept] = 0.0
    retained = float(np.abs(data[kept]).sum())
    if report is not None:
        report["alias_rel"] = alias_rel
        report["discard_rel"] = (total - retained) / max(total, 1e-300)
    if alias_rel > alias_tol:
        raise AliasingError(
            f"aliasing energy {alias_rel:.3e} exceeds {alias_tol:.3e} in {context}",
            alias_rel=alias_rel,
            context=context,
        )
    return _an.AnalyticFunction.from_array(lattice, jmax, data, real=real)


def _phi_ifft(spec, mphi, sizes):
    axes = tuple(range(mphi))
    return np.fft.ifftn(spec, axes=axes) * float(np.prod(sizes[:mphi]))


def _phi_angle(row, sizes_phi):
    """Grid of l . phi over the phi tensor grid, for l given as a dense row."""
    angle = np.zeros(sizes_phi)
    for i, v in enumerate(row):
        if v:
            ax = _TWO_PI * np.arange(sizes_phi[i]) / sizes_phi[i]
            shape = [1] * len(sizes_phi)
            shape[i] = sizes_phi[i]
            angle = angle + v * ax.reshape(shape)
    return angle


def compose_x_diffeo(u, alpha, factor=2, alias_tol=1e-7, report=None):
    """u(phi, x + alpha(phi, x)), exact for alpha = 0 on the retained modes."""
    if u.lattice != alpha.lattice:
        raise ValueError("incompatible lattices")
    jmax = max(u.jmax, alpha.jmax)
    sizes = grid_sizes(u.lattice, jmax, factor)
    m = u.lattice.M
    spec = _place(u, sizes, with_x=True)
    G = _phi_ifft(spec, m, sizes)
    avals = _real_grid_values(alpha, sizes, True, "x-diffeomorphism amplitude")
    nx = sizes[-1]
    x = _TWO_PI * np.arange(nx) / nx
    W = np.exp(1j * (x.reshape((1,) * m + (nx,)) + avals))
    val = np.broadcast_to(G[..., 0][..., None], sizes).copy()
    Wp = np.ones_like(W)
    Wm = np.ones_like(W)
    for j in range(1, jmax + 1):
        Wp = Wp * W
        Wm = Wm * np.conj(W)
        val += G[..., j % nx][..., None] * Wp
        val += G[..., (-j) % nx][..., None] * Wm
    return _extract(
        val, u.lattice, u.jmax, real=u.real, alias_tol=alias_tol,
        context="compose_x_diffeo", report=report,
    )


def compose_phi_shift(u, beta, omega, factor=2, alias_tol=1e-7, report=None):
    """u(phi + omega beta(phi), x) for a real function beta of phi alone."""
    if u.lattice != beta.lattice:
        raise ValueError("incompatible lattices")
    if not beta.phi_only:
        raise ValueError("shift amplitude must depend on phi only")
    enum = get_enumeration(u.lattice)
    dots = enum.dots(omega)
    sphi = phi_sizes(u.lattice, factor)
    bvals = _real_grid_values(beta, sphi, False, "time-reparametrization amplitude")
    nx = next_fast_len(max(2, int(factor)) * (2 * u.jmax + 1) + 1)
    T = np.zeros(sphi + (nx,), dtype=complex)
    for p in np.flatnonzero(u.data.any(axis=1)):
        E = np.exp(1j * (_phi_angle(enum.dense[p], sphi) + dots[p] * bvals))
        cols = np.flatnonzero(u.data[p])
        T[..., (cols - u.jmax) % nx] += E[..., None] * u.data[p, cols]
    val = np.fft.ifft(T, axis=-1) * nx
    return _extract(
        val, u.lattice, u.jmax, real=u.real, alias_tol=alias_tol,
        context="compose_phi_shift", report=report,
    )


def compose_x_translation(u, p, factor=2, alias_tol=1e-7, report=None):
    """u(phi, x + p(phi)) for a real function p of phi alone."""
    if u.lattice != p.lattice:
        raise ValueError("incompatible lattices")
    if not p.phi_only:
        raise ValueError("translation amplitude must depend on phi only")
    m = u.lattice.M
    sizes = grid_sizes(u.lattice, u.jmax, factor)
    sphi = sizes[:-1]
    nx = sizes[-1]
    pvals = _real_grid_values(p, sphi, False, "translation amplitude")
    spec = _place(u, sizes, with_x=True)
    G = _phi_ifft(spec, m, sizes)
    P = np.exp(1j * pvals)
    T = np.zeros_like(G)
    T[..., 0] = G[..., 0]
    Pp = np.ones_like(P)
    Pm = np.ones_like(P)
    for j in range(1, u.jmax + 1):
        Pp = Pp * P
        Pm = Pm * np.conj(P)
        T[..., j % nx] = G[..., j % nx] * Pp
        T[..., (-j) % nx] = G[..., (-j) % nx] * Pm
    val = np.fft.ifft(T, axis=-1) * nx
    return _extract(
        val, u.lattice, u.jmax, real=u.real, alias_tol=alias_tol,
        context="compose_x_translation", report=report,
    )


def invert_x_diffeo(alpha, factor=2, tol=1e-13, max_iter=100, alias_tol=1e-7, report=None):
    """alpha_tilde with x + alpha evaluated at y + alpha_tilde(phi, y) == y.

    Pointwise Picard iteration on the grid; requires the contraction
    |alpha_x|_0 < 1 and raises NonContractionError otherwise.
    """
    slope = _an.dx(alpha, 1).norm(0.0)
    if slope >= 0.9:
        raise NonContractionError(f"|alpha_x| ~ {slope:.3f} too large to invert")
    m = alpha.lattice.M
    sizes = grid_sizes(alpha.lattice, alpha.jmax, factor)
    nx = sizes[-1]
    spec = _place(alpha, sizes, with_x=True)
    A = _phi_ifft(spec, m, sizes)  # x-spectrum of alpha over the phi grid
    y = _TWO_PI * np.arange(nx) / nx
    ybr = y.reshape((1,) * m + (nx,))
    t = np.zeros(sizes)
    last = np.inf
    for _ in range(max_iter):
        W = np.exp(1j * (ybr + t))
        Wp = np.ones_like(W)
        Wm = np.ones_like(W)
        new = np.broadcast_to(A[..., 0][..., None], sizes).astype(complex)
        for j in range(1, alpha.jmax + 1):
            Wp = Wp * W
            Wm = Wm * np.conj(W)
            new += A[..., j % nx][..., None] * Wp
            new += A[..., (-j) % nx][..., None] * Wm
        new = -new.real
        step = float(np.max(np.abs(new - t)))
        t = new
        if step <= tol:
            break
        if step > 2.0 * last + tol:
            raise NonContractionError("x-diffeomorphism inversion diverged")
        last = step
    else:
        raise NonContractionError(f"no contraction after {max_iter} iterations")
    out = _extract(
        t.astype(complex), alpha.lattice, alpha.jmax, real=True,
        alias_tol=alias_tol, context="invert_x_diffeo", report=report,
    )
    if report is not None:
        report["fixed_point_residual"] = step
    return out


def invert_phi_shift(beta, omega, factor=2, tol=1e-13, max_iter=100, alias_tol=1e-7, report=None):
    """beta_tilde with phi + omega beta evaluated at theta + omega beta_tilde == theta."""
    if not beta.phi_only:
        raise ValueError("shift amplitude must depend on phi only")
    enum = get_enumeration(beta.lattice)
    rows = np.flatnonzero(beta.data[:, beta.jmax])
    coef = beta.data[rows, beta.jmax]
    dots = enum.dots(omega)[rows]
    slope = float(np.sum(np.abs(dots) * np.abs(coef)))
    if slope >= 0.9:
        raise NonContractionError(f"|omega.d_phi beta| ~ {slope:.3f} too large to invert")
    sphi = phi_sizes(beta.lattice, factor)
    phases = [c * np.exp(1j * _phi_angle(enum.dense[p], sphi)) for p, c in zip(rows, coef)]
    s = np.zeros(sphi)
    last = np.inf
    for _ in range(max_iter):
        acc = np.zeros(sphi, dtype=complex)
        for phase, d in zip(phases, dots):
            acc += phase * np.exp(1j * d * s)
        new = -acc.real
        step = float(np.max(np.abs(new - s)))
        s = new
        if step <= tol:
            break
        if step > 2.0 * last + tol:
            raise NonContractionError("phi-shift inversion diverged")
        last = step
    else:
        raise NonContractionError(f"no contraction after {max_iter} iterations")
    out = _extract(
        s.astype(complex), beta.lattice, beta.jmax, real=True,
        alias_tol=alias_tol, context="invert_phi_shift", report=report, with_x=False,
    )
    if report is not None:
        report["fixed_point_residual"] = step
    return out


def moser_compose(series, u, factor=2, alias_tol=1e-7, report=None):
    """fn(u) by pointwise grid evaluation, for |u|_0 strictly inside the radius."""
    r = u.norm(0.0)
    if r >= series.radius:
        raise SeriesRadiusError(
            f"|u|_0 = {r:.3e} is not inside the convergence radius {series.radius:.3e}"
            + (f" of {series.label}" if series.label else "")
        )
    if u.phi_only:
        sphi = phi_sizes(u.lattice, factor)
        vals = _real_grid_values(u, sphi, False, "scalar-series argument") if u.real else grid_values(u, sphi, False)
        out = np.asarray(series.fn(vals), dtype=complex)
        return _extract(
            out, u.lattice, u.jmax, real=u.real, alias_tol=alias_tol,
            context="moser_compose", report=report, with_x=False,
        )
    sizes = grid_sizes(u.lattice, u.jmax, factor)
    vals = _real_grid_values(u, sizes, True, "scalar-series argument") if u.real else grid_values(u, sizes, True)
    out = np.asarray(series.fn(vals), dtype=complex)
    return _extract(
        out, u.lattice, u.jmax, real=u.real, alias_tol=alias_tol,
        context="moser_compose", report=report,
    )
