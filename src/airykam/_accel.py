"""The product kernels.

Two inner loops are neither BLAS nor FFT bound: the sparse coefficient
convolution of ``analytic.multiply`` and the sparse block product of
``opalg.compose``.  Both walk the left factor's nonzeros in chunks and pair
each with the right factor's nonzeros it meets.  ``convolve_into`` pairs
every left coefficient with every right one and sums each chunk's products
onto their targets with ``np.bincount``, once on the real and once on the
imaginary part.  ``join_into`` pairs a left entry (a, i, k) only with the
right entries (b, k, j) of its inner index k, the row-wise sparse matrix
product (Gustavson, ACM TOMS 1978), and adds each chunk's products with
``np.add.at``: its output is a stack of whole blocks, and a bincount over it
would allocate and add the whole stack once per chunk.  Products are
accumulated in (a-major, b-minor) order within a chunk and chunk by chunk,
so the results are deterministic run to run.

``grid_product`` is the dense path of ``analytic.multiply``: it forms the
product of two real functions by the convolution theorem, on a grid just
fine enough that no product mode aliases onto a kept one.  Its result
carries absolute rounding noise of about 1e-16 |u|_1 |v|_1 on every
coefficient, which ``multiply`` drops with ``NOISE_FLOOR``.
"""

from __future__ import annotations

import numpy as np

# Pairs formed per chunk.  A pair costs about 60 bytes of temporaries (target
# row and x-mode, mask, flat target, product, masked copies), so the kernel's
# temporaries peak near 4 MB however dense the factors are; one pass over all
# 1.36M pairs of two dense functions on the solve_m2 truncation peaked at
# 60 MB (tracemalloc).  Chunks this large keep numpy's per-call overhead small
# against the pair work.  A pair of join_into costs about 50 bytes (entry
# indices, target, mask, flat target, product): 768k pairs of two site-1
# operators with three diagonals per block at K=12, jmax=32 peaked at 3.6 MB.
CHUNK_PAIRS = 1 << 16

# Coefficients of a grid result (multiply's grid path, a grid pass of _grid)
# at or below this share of its largest one are rounding noise, and are dropped.
NOISE_FLOOR = 8e-16


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


def convolve_into(ia, ja, va, ib, jb, vb, conv, jmax, out):
    """Accumulate the truncated convolution of two sparse coefficient lists.

    ``ia, ja, va`` index the left factor (lattice index, x-mode, value) and
    likewise for the right factor; ``conv[p, q]`` is the lattice index of the
    sum of enumerated indices p and q, or -1 when the pair is not summed (its
    target leaves the truncation).  ``out`` has shape (n_lattice, 2*jmax+1)
    and must be C-contiguous, so that it is summed in place.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if ia.size == 0 or ib.size == 0:
        return
    ncols = out.shape[1]
    flat_out = out.reshape(-1)
    re, im = flat_out.real, flat_out.imag
    step = max(1, CHUNK_PAIRS // ib.size)
    for s in range(0, ia.size, step):
        a = slice(s, s + step)
        lo = conv[ia[a]][:, ib]
        jo = ja[a, None] + jb[None, :]
        keep = (lo >= 0) & (np.abs(jo) <= jmax)
        flat = (lo * ncols + jo)[keep] + jmax
        vals = (va[a, None] * vb[None, :])[keep]
        re += np.bincount(flat, vals.real, flat_out.size)
        im += np.bincount(flat, vals.imag, flat_out.size)


def join_into(ia, ra, ka, va, ib, kb, cb, vb, slot, out):
    """Accumulate a product of sparse block operators, entry by entry.

    ``ia, ra, ka, va`` list the left factor's nonzeros (block, row, inner
    index, value) in the order they are summed, and ``ib, kb, cb, vb`` the
    right factor's (block, inner index, column, value).  ``slot[a, b]`` is
    the block of ``out`` that receives the product of left block a and right
    block b, or -1 when that product is not summed.  Every pair of entries
    with the same inner index adds ``va * vb`` to ``out[slot[a, b], ra, cb]``.
    ``out`` has shape (n_slots, n, n) and must be C-contiguous.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if ia.size == 0 or ib.size == 0:
        return
    n = out.shape[1]
    flat_out = out.reshape(-1)
    # the right entries grouped by inner index, in their given order within a group
    order = np.argsort(kb, kind="stable")
    ib, cb, vb = ib[order], cb[order], vb[order]
    in_row = np.bincount(kb, minlength=n)
    row_start = np.cumsum(in_row) - in_row
    pairs = in_row[ka]                 # pairs formed by each left entry
    ends = np.cumsum(pairs)
    s = 0
    while s < ia.size:
        done = ends[s - 1] if s else 0
        e = max(s + 1, int(np.searchsorted(ends, done + CHUNK_PAIRS, side="right")))
        counts = pairs[s:e]
        # pair t of left entry a meets right entry row_start[ka[a]] + (t - first pair of a)
        a = np.repeat(np.arange(s, e), counts)
        b = np.arange(a.size) + np.repeat(row_start[ka[s:e]] - (ends[s:e] - counts - done),
                                          counts)
        target = slot[ia[a], ib[b]]
        keep = target >= 0
        a, b = a[keep], b[keep]
        np.add.at(flat_out, (target[keep] * n + ra[a]) * n + cb[b], va[a] * vb[b])
        s = e


def grid_product(a, b, cells, sizes):
    """The x-modes j >= 0 of the product of two real functions, by the
    convolution theorem.

    ``a`` and ``b`` hold the factors' x-modes j = 0 .. k - 1, one row per
    lattice index; the modes j < 0 are their conjugates at the negated
    index.  ``cells`` gives each row's position on the phi axes of the real
    grid ``sizes`` (phi axes, then x), in FFT order.  Both factors are placed
    on the half spectrum, taken to the grid with ``irfftn``, multiplied
    pointwise and taken back with one ``rfftn``; the result has the shape of
    ``a``.  With 3 b + 1 points on an axis whose modes stay within |m| <= b,
    a product mode (|m| <= 2 b) never aliases onto a kept one.
    """
    half = sizes[:-1] + (sizes[-1] // 2 + 1,)
    at = cells + (slice(a.shape[1]),)
    vals = []
    for f in (a, b):
        spec = np.zeros(half, dtype=complex)
        spec[at] = f
        vals.append(np.fft.irfftn(spec, sizes, axes=range(len(sizes))))
    # with N points, grid values are N irfftn(spec) and coefficients rfftn(values) / N
    return np.fft.rfftn(vals[0] * vals[1])[at] * float(np.prod(sizes))
