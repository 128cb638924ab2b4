import numpy as np

from airykam import _accel
from airykam.lattice import LatticeParams, get_enumeration


def _convolve_loops(ia, ja, va, ib, jb, vb, conv, jmax, out):
    """Loop oracle for _accel.convolve_into, in the same (a-major, b-minor) order."""
    nb = ib.shape[0]
    for s in range(ia.shape[0]):
        p = ia[s]
        jA = ja[s]
        x = va[s]
        for t in range(nb):
            q = conv[p, ib[t]]
            if q < 0:
                continue
            jo = jA + jb[t]
            if jo < -jmax or jo > jmax:
                continue
            out[q, jo + jmax] += x * vb[t]


def _random_arrays(lat, jmax, seed, n):
    enum = get_enumeration(lat)
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, enum.size, n)
    ja = rng.integers(-jmax, jmax + 1, n)
    va = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ia.astype(np.int64), ja.astype(np.int64), va


def test_kernels_agree_and_are_deterministic():
    """The kernel is deterministic and agrees with the loop oracle to final rounding."""
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 8
    enum = get_enumeration(lat)
    conv = enum.conv_table()
    ia, ja, va = _random_arrays(lat, jmax, 1, 120)
    ib, jb, vb = _random_arrays(lat, jmax, 2, 90)
    shape = (enum.size, 2 * jmax + 1)
    outs = []
    for kernel in (_accel.convolve_into, _convolve_loops):
        a = np.zeros(shape, dtype=complex)
        kernel(ia, ja, va, ib, jb, vb, conv, jmax, a)
        b = np.zeros(shape, dtype=complex)
        kernel(ia, ja, va, ib, jb, vb, conv, jmax, b)
        assert np.array_equal(a, b)          # run-to-run determinism
        outs.append(a)
    scale = np.max(np.abs(outs[0]))
    for other in outs[1:]:
        assert np.max(np.abs(other - outs[0])) <= 1e-14 * scale
