"""The sparse Fourier product kernel.

The sparse coefficient convolution is the one inner loop that is neither
BLAS nor FFT bound.  ``convolve_into`` walks the left factor's coefficients
in chunks, forms every pair of a chunk with every right coefficient, and
sums each chunk's products onto their targets with ``np.bincount``, once on
the real and once on the imaginary part.  Within a chunk the products are
accumulated in (a-major, b-minor) order, and chunks are added to ``out`` in
order, so the result is deterministic run to run.
"""

from __future__ import annotations

import numpy as np

# Pairs formed per chunk.  A pair costs about 60 bytes of temporaries (target
# row and x-mode, mask, flat target, product, masked copies), so the kernel's
# temporaries peak near 4 MB however dense the factors are; one pass over all
# 1.36M pairs of two dense functions on the solve_m2 truncation peaked at
# 60 MB (tracemalloc).  Chunks this large keep numpy's per-call overhead small
# against the pair work.
CHUNK_PAIRS = 1 << 16


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
