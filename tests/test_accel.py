import numpy as np
import pytest

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


def _convolve_unchunked(ia, ja, va, ib, jb, vb, conv, jmax, out):
    """The former kernel: every pair at once, scattered by an unbuffered np.add.at."""
    if ia.size == 0 or ib.size == 0:
        return
    lo = conv[ia[:, None], ib[None, :]]
    jo = ja[:, None] + jb[None, :]
    keep = (lo >= 0) & (np.abs(jo) <= jmax)
    vals = va[:, None] * vb[None, :]
    flat = lo[keep] * out.shape[1] + (jo[keep] + jmax)
    np.add.at(out.reshape(-1), flat, vals[keep])


def _random_arrays(lat, jmax, seed, n):
    enum = get_enumeration(lat)
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, enum.size, n)
    ja = rng.integers(-jmax, jmax + 1, n)
    va = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ia.astype(np.int64), ja.astype(np.int64), va


def _dense_arrays(lat, jmax, seed):
    """Every lattice row with the 16 x-modes 1..8 and -8..-1, as in a dense solve product."""
    enum = get_enumeration(lat)
    modes = np.r_[-8:0, 1:9]
    ia = np.repeat(np.arange(enum.size), modes.size)
    ja = np.tile(modes, enum.size)
    rng = np.random.default_rng(seed)
    va = rng.normal(size=ia.size) + 1j * rng.normal(size=ia.size)
    return ia, ja.astype(np.int64), va


def _run(kernel, a, b, conv, jmax, shape):
    out = np.zeros(shape, dtype=complex)
    kernel(*a, *b, conv, jmax, out)
    return out


def _assert_close(out, ref):
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def _check_against_references():
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 8
    enum = get_enumeration(lat)
    conv = enum.conv_table()
    a = _random_arrays(lat, jmax, 1, 120)
    b = _random_arrays(lat, jmax, 2, 90)
    shape = (enum.size, 2 * jmax + 1)
    outs = []
    for kernel in (_accel.convolve_into, _convolve_loops, _convolve_unchunked):
        first = _run(kernel, a, b, conv, jmax, shape)
        assert np.array_equal(first, _run(kernel, a, b, conv, jmax, shape))  # run to run
        outs.append(first)
    for ref in outs[1:]:
        _assert_close(outs[0], ref)


def test_kernels_agree_and_are_deterministic():
    """The kernel is deterministic and agrees with both references to final rounding."""
    _check_against_references()


@pytest.mark.parametrize("chunk_pairs", [500, 50], ids=["chunks-of-rows", "one-row-chunks"])
def test_small_chunks_agree_with_the_references(monkeypatch, chunk_pairs):
    """The same product, with the left factor split into 24 and 120 chunks."""
    monkeypatch.setattr(_accel, "CHUNK_PAIRS", chunk_pairs)
    _check_against_references()


def test_dense_product_spans_many_chunks():
    """Two dense operands on the solve_m2 truncation (M=2, K=8, jmax=16): 1.36M pairs,
    about 21 chunks of the left factor."""
    lat = LatticeParams(1.0, 2, 8.0)
    jmax = 16
    enum = get_enumeration(lat)
    conv = enum.conv_table()
    a, b = _dense_arrays(lat, jmax, 3), _dense_arrays(lat, jmax, 4)
    assert a[0].size * b[0].size > 20 * _accel.CHUNK_PAIRS
    shape = (enum.size, 2 * jmax + 1)
    out = _run(_accel.convolve_into, a, b, conv, jmax, shape)
    assert np.array_equal(out, _run(_accel.convolve_into, a, b, conv, jmax, shape))
    _assert_close(out, _run(_convolve_unchunked, a, b, conv, jmax, shape))


def test_empty_operand_and_jmax_zero():
    lat = LatticeParams(1.0, 2, 6.0)
    enum = get_enumeration(lat)
    conv = enum.conv_table()
    a = _random_arrays(lat, 0, 5, 40)
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))
    for left, right in ((a, empty), (empty, a)):
        assert not _run(_accel.convolve_into, left, right, conv, 0, (enum.size, 1)).any()
    out = _run(_accel.convolve_into, a, a, conv, 0, (enum.size, 1))
    assert out.any()
    _assert_close(out, _run(_convolve_loops, a, a, conv, 0, (enum.size, 1)))


def test_rejects_a_non_contiguous_out():
    lat = LatticeParams(1.0, 2, 6.0)
    enum = get_enumeration(lat)
    a = _random_arrays(lat, 2, 6, 10)
    out = np.zeros((enum.size, 10), dtype=complex)[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        _accel.convolve_into(*a, *a, enum.conv_table(), 2, out)


def test_next_fast_len_is_the_smallest_5_smooth_length():
    smooth = sorted(2**a * 3**b * 5**c for a in range(8) for b in range(5) for c in range(4))
    for n in range(1, 190):
        assert _accel.next_fast_len(n) == min(m for m in smooth if m >= n)


@pytest.mark.parametrize("M,K,jmax", [(1, 8.0, 6), (2, 6.0, 8), (3, 3.0, 4), (2, 6.0, 0)],
                         ids=["M1", "M2", "M3", "jmax0"])
def test_grid_product_agrees_with_convolve_into(M, K, jmax):
    """The modes j >= 0 of a product of two dense real coefficient arrays on the
    3 b + 1 grid, against the direct sum over every coefficient pair."""
    lat = LatticeParams(1.0, M, K)
    enum = get_enumeration(lat)
    rng = np.random.default_rng(M + jmax)
    shape = (enum.size, 2 * jmax + 1)
    real = []
    for _ in range(2):
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        real.append(data + np.conj(data[enum.neg, ::-1]))
    sizes = tuple(_accel.next_fast_len(3 * b + 1) for b in enum.bounds + (jmax,))
    cells = tuple(enum.dense[:, s] % n for s, n in enumerate(sizes[:-1]))
    grid = _accel.grid_product(real[0][:, jmax:], real[1][:, jmax:], cells, sizes)
    assert np.array_equal(grid, _accel.grid_product(real[0][:, jmax:], real[1][:, jmax:],
                                                    cells, sizes))
    lists = [(ia, ja - jmax, d[ia, ja]) for d in real for ia, ja in [np.nonzero(d)]]
    direct = np.zeros(shape, dtype=complex)
    _accel.convolve_into(*lists[0], *lists[1], enum.conv_table(), jmax, direct)
    scale = np.abs(real[0]).sum() * np.abs(real[1]).sum()
    assert np.max(np.abs(grid - direct[:, jmax:])) <= 1e-14 * scale


def _join_loops(ia, ra, ka, va, ib, kb, cb, vb, slot, out):
    """Loop oracle for _accel.join_into: left entries in order, then right entries in order."""
    for s in range(ia.size):
        for t in range(ib.size):
            if ka[s] == kb[t] and slot[ia[s], ib[t]] >= 0:
                out[slot[ia[s], ib[t]], ra[s], cb[t]] += va[s] * vb[t]


def _join_arrays(seed, blocks, n, size):
    rng = np.random.default_rng(seed)
    idx = [rng.integers(0, m, size) for m in (blocks, n, n)]
    return (*idx, rng.normal(size=size) + 1j * rng.normal(size=size))


def _join(a, b, slot, n):
    out = np.zeros((3, n, n), complex)
    _accel.join_into(*a, *b, slot, out)
    return out


@pytest.mark.parametrize("chunk_pairs", [40, 1], ids=["small", "one-entry"])
def test_join_agrees_with_the_loop_oracle_in_any_chunking(monkeypatch, chunk_pairs):
    """Products are added one by one in (left, right) order, so the chunking
    leaves the result bitwise unchanged; a slot of -1 drops its block pairs."""
    n = 7
    a, b = _join_arrays(1, 4, n, 150), _join_arrays(2, 5, n, 120)
    slot = np.random.default_rng(3).integers(-1, 3, (4, 5))
    whole = _join(a, b, slot, n)
    ref = np.zeros_like(whole)
    _join_loops(*a, *b, slot, ref)
    _assert_close(whole, ref)
    monkeypatch.setattr(_accel, "CHUNK_PAIRS", chunk_pairs)
    assert np.array_equal(_join(a, b, slot, n), whole)


def test_join_rejects_a_non_contiguous_out():
    a = _join_arrays(4, 2, 3, 5)
    out = np.zeros((2, 3, 6), dtype=complex)[:, :, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        _accel.join_into(*a, *a, np.zeros((2, 2), np.int64), out)
