"""The sparse Fourier product kernel.

The sparse coefficient convolution is the one inner loop that is neither
BLAS nor FFT bound.  ``convolve_into`` does it with numpy fancy indexing and
an unbuffered ``np.add.at``, accumulating products in (a-major, b-minor)
order, so it is deterministic run to run.
"""

from __future__ import annotations

import numpy as np


def convolve_into(ia, ja, va, ib, jb, vb, conv, jmax, out):
    """Accumulate the truncated convolution of two sparse coefficient lists.

    ``ia, ja, va`` index the left factor (lattice index, x-mode, value) and
    likewise for the right factor; ``conv[p, q]`` is the lattice index of the
    sum of enumerated indices p and q, or -1 when it leaves the truncation.
    ``out`` has shape (n_lattice, 2*jmax+1).
    """
    if ia.size == 0 or ib.size == 0:
        return
    lo = conv[ia[:, None], ib[None, :]]
    jo = ja[:, None] + jb[None, :]
    keep = (lo >= 0) & (np.abs(jo) <= jmax)
    vals = va[:, None] * vb[None, :]
    flat = lo[keep] * out.shape[1] + (jo[keep] + jmax)
    np.add.at(out.reshape(-1), flat, vals[keep])
