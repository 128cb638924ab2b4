import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airykam.lattice import (
    Enumeration,
    LatticeParams,
    MultiIndex,
    diophantine_weight,
    divisor_series_partial_sum,
    divisor_weight,
    enumerate_indices,
    eta_norm,
    get_enumeration,
    l1_norm,
    weight_bound_report,
)

entries_st = st.lists(st.integers(-4, 4), min_size=0, max_size=4)


def test_eta_norm_examples():
    assert eta_norm(MultiIndex.zero(), 1.0) == 0.0
    assert eta_norm(MultiIndex((2, -1)), 1.0) == 4.0
    assert eta_norm(MultiIndex.unit(3), 2.0) == 9.0


def test_eta_norm_zero_iff_zero():
    assert eta_norm(MultiIndex((0, 0, 1)), 0.7) > 0.0
    with pytest.raises(ValueError):
        eta_norm(MultiIndex.unit(1), 0.0)


@settings(max_examples=60, deadline=None)
@given(entries_st, entries_st)
def test_eta_norm_triangle_inequality(a, b):
    la, lb = MultiIndex(a), MultiIndex(b)
    assert eta_norm(la + lb, 1.3) <= eta_norm(la, 1.3) + eta_norm(lb, 1.3) + 1e-12


def test_divisor_weight_examples():
    assert divisor_weight(MultiIndex.zero()) == 1.0
    assert divisor_weight(MultiIndex.unit(1)) == 2.0
    # recompute by hand-expansion: (1 + 2^5)(1 + 1 * 2^5)
    l = MultiIndex.from_pairs([(1, 2), (2, 1)])
    assert divisor_weight(l) == (1 + 32) * (1 + 32) == 1089


def test_divisor_weight_overflow_reported():
    l = MultiIndex.from_pairs([(40, 10**62)])
    with pytest.raises(OverflowError):
        divisor_weight(l)


@settings(max_examples=40, deadline=None)
@given(entries_st)
def test_weights_are_even(a):
    l = MultiIndex(a)
    assert divisor_weight(-l) == divisor_weight(l)
    if l:
        assert diophantine_weight(-l) == diophantine_weight(l)


def test_diophantine_weight_examples():
    assert diophantine_weight(MultiIndex.unit(1)) == 0.5
    assert diophantine_weight(MultiIndex.unit(2)) == pytest.approx(1 / 5)
    l = MultiIndex.from_pairs([(1, 1), (2, -2)])
    assert diophantine_weight(l) == pytest.approx(1 / 34)
    with pytest.raises(ValueError):
        diophantine_weight(MultiIndex.zero())


def _brute_force_count(M, K, eta):
    """Independent nested-loop scan for small truncations."""
    span = int(K) + 1
    count = 0
    if M == 1:
        for a in range(-span, span + 1):
            if abs(a) <= K + 1e-12:
                count += 1
        return count
    assert M == 2
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            if abs(a) + 2.0**eta * abs(b) <= K + 1e-12:
                count += 1
    return count


def test_enumerate_examples():
    only_zero = enumerate_indices(LatticeParams(1.0, 1, 0.5))
    assert only_zero == (MultiIndex.zero(),)

    five = enumerate_indices(LatticeParams(1.0, 1, 2.0))
    assert len(five) == _brute_force_count(1, 2.0, 1.0) == 5
    assert set(five) == {MultiIndex((k,)) for k in range(-2, 3)}

    got = enumerate_indices(LatticeParams(1.0, 2, 2.0))
    assert len(got) == _brute_force_count(2, 2.0, 1.0) == 7


def test_enumerate_order_and_uniqueness():
    params = LatticeParams(1.0, 2, 4.0)
    idx = enumerate_indices(params)
    assert len(set(idx)) == len(idx)
    norms = [eta_norm(l, 1.0) for l in idx]
    assert norms == sorted(norms)
    assert idx[0] == MultiIndex.zero()
    assert all(-l in idx for l in idx)


def test_enumeration_monotone_in_M_and_K():
    base = len(enumerate_indices(LatticeParams(1.0, 2, 4.0)))
    assert len(enumerate_indices(LatticeParams(1.0, 3, 4.0))) >= base
    assert len(enumerate_indices(LatticeParams(1.0, 2, 6.0))) >= base


def test_weight_bound_report():
    params = LatticeParams(1.0, 1, 3.0)
    # scan oracle over l = 0, +-1, +-2, +-3
    oracle = max(
        divisor_weight(MultiIndex((k,))) * math.exp(-1.0 * abs(k)) for k in range(-3, 4)
    )
    got = weight_bound_report(1.0, 1.0, params)
    assert got == pytest.approx(oracle)
    assert got == pytest.approx(244.0 * math.exp(-3.0))
    # the exponential kills everything but l = 0 for large rho
    assert weight_bound_report(50.0, 1.0, params) == pytest.approx(1.0)


def test_divisor_series_against_enumeration_oracle():
    for params in (LatticeParams(1.0, 1, 1.0), LatticeParams(1.0, 2, 4.0),
                   LatticeParams(0.7, 2, 3.0)):
        oracle = sum(
            l1_norm(l) ** 3 / divisor_weight(l) for l in enumerate_indices(params)
        )
        assert divisor_series_partial_sum(params) == pytest.approx(oracle, rel=1e-13)
    assert divisor_series_partial_sum(LatticeParams(1.0, 1, 0.5)) == 0.0
    assert divisor_series_partial_sum(LatticeParams(1.0, 1, 1.0)) == pytest.approx(1.0)


def test_divisor_series_stabilizes_under_refinement():
    seq = [
        divisor_series_partial_sum(LatticeParams(1.0, m, k))
        for m, k in ((1, 16.0), (2, 32.0), (3, 64.0), (4, 64.0), (4, 128.0))
    ]
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    # documented threshold: beyond (M, K) = (4, 64) refinements move < 1%
    assert (seq[4] - seq[3]) / seq[4] < 0.01


@pytest.mark.parametrize("params", [LatticeParams(1.0, 1, 5.0), LatticeParams(1.0, 2, 8.0),
                                    LatticeParams(0.7, 3, 3.5)])
def test_lookup_matches_dict(params):
    """lookup against a dict of the enumerated rows, on sums, negations and
    random rows in and beyond the box |l_s| <= bounds[s - 1]."""
    enum = get_enumeration(params)
    index = {tuple(row): p for p, row in enumerate(enum.dense.tolist())}
    top = enum.bounds[0] + 2
    rows = np.concatenate([
        np.random.default_rng(0).integers(-top, top + 1, size=(2000, params.M)),
        -enum.dense,
        (enum.dense[:, None, :] + enum.dense[None, :20, :]).reshape(-1, params.M),
    ])
    got = enum.lookup(rows)
    assert got.tolist() == [index.get(tuple(row), -1) for row in rows.tolist()]
    assert 0 < np.count_nonzero(got >= 0) < len(rows)


def test_lookup_beyond_int64_keys():
    # 42 sites of bound 1: a box of 3^42 rows, more than int64 keys can number.
    enum = get_enumeration(LatticeParams(0.1, 42, 1.5))
    assert enum.bounds == (1,) * 42
    key, row = 3**42 // 2 + 2**64, []  # the key of l = 0, plus 2^64
    for _ in range(42):
        key, digit = divmod(key, 3)
        row.append(digit - 1)
    assert enum.lookup([row, [0] * 42]).tolist() == [-1, 0]


def test_convolution_table():
    for params in (LatticeParams(1.0, 2, 3.0), LatticeParams(1.0, 3, 3.0),
                   LatticeParams(0.7, 3, 3.5)):
        enum = get_enumeration(params)
        conv = enum.conv_table()
        for p, lp in enumerate(enum.indices):
            assert enum.indices[enum.neg[p]] == -lp
            for q, lq in enumerate(enum.indices):
                s = lp + lq
                expect = enum.index_of.get(s, -1)
                assert conv[p, q] == expect


def test_convolution_table_builds_in_bounded_memory():
    """The n = 931 table of M = 2, K = 30 is built a block of rows at a time:
    the traced peak stays below twice the table, and the table equals the
    one-shot lookup of all n^2 sums."""
    enum = Enumeration(LatticeParams(1.0, 2, 30.0))
    tracemalloc.start()
    try:
        conv = enum.conv_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = enum.size
    assert n == 931
    assert peak < 2 * conv.nbytes
    whole = enum.lookup(enum.dense[:, None, :] + enum.dense[None, :, :]).reshape(n, n)
    assert conv.dtype == whole.dtype and np.array_equal(conv, whole)
