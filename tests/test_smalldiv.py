import numpy as np
import pytest

from airykam.lattice import (
    LatticeParams,
    MultiIndex,
    diophantine_weight,
    divisor_weight,
    enumerate_indices,
    eta_norm,
)
from airykam.smalldiv import (
    DiophantineParams,
    FrequencyVector,
    first_melnikov,
    is_airy_nonresonant,
    is_diophantine,
    measure_estimate,
    second_melnikov,
    smallest_divisor_report,
)

E1 = MultiIndex.unit(1)


def airy_table(jmax, lam3=1.0, lam1=0.0):
    """Omega(j) = -lam3 j^3 + lam1 j, indexed j + jmax."""
    j = np.arange(-jmax, jmax + 1, dtype=float)
    return -lam3 * j**3 + lam1 * j


def modes(table):
    """(j, Omega(j)) for j != 0 of a frequency array indexed j + jmax."""
    jmax = len(table) // 2
    return [(j, table[j + jmax]) for j in range(-jmax, jmax + 1) if j != 0]


def test_frequency_vector_validation():
    FrequencyVector([1.0, 2.0])
    with pytest.raises(ValueError):
        FrequencyVector([0.9, 1.5])
    with pytest.raises(ValueError):
        FrequencyVector([[1.1, 1.2]])


def test_diophantine_params_schedule():
    p = DiophantineParams(0.2, 0.5)
    gammas = [p.gamma(n) for n in range(12)]
    assert gammas[0] == 0.2
    assert gammas[1] == pytest.approx(0.1)
    assert all(b < a for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] > 0.05  # limit stays positive
    with pytest.raises(ValueError):
        DiophantineParams(0.3, 0.5)


def test_single_site_always_passes(lat2):
    # |omega . e_1| = omega_1 >= 1 > gamma / 2 for any admissible omega
    for w1 in (1.0, 1.5, 2.0):
        chk = is_diophantine(np.array([w1, 1.3]), 0.9, lat2)
        l_margin = w1 / (0.9 * diophantine_weight(E1))
        assert chk.margin <= l_margin + 1e-12 or chk.ok


def test_diophantine_engineered_resonance(lat2):
    omega = np.array([1.5, 1.5])
    chk = is_diophantine(omega, 0.4, lat2)
    assert not chk.ok
    w = chk.witness
    assert w is not None and w.divisor == 0.0
    # witness verifies: plugging back reproduces the violation
    assert abs(np.dot(np.array(w.l.dense(2), float), omega)) == w.divisor
    assert w.floor == pytest.approx(0.4 * diophantine_weight(w.l))


def test_diophantine_brute_force_oracle(lat2):
    rng = np.random.default_rng(77)
    for _ in range(20):
        omega = rng.uniform(1.0, 2.0, 2)
        gamma = 0.5
        worst = np.inf
        for l in enumerate_indices(lat2):
            if not l:
                continue
            ratio = abs(np.dot(np.array(l.dense(2), float), omega)) / (
                gamma * diophantine_weight(l)
            )
            worst = min(worst, ratio)
        chk = is_diophantine(omega, gamma, lat2)
        assert chk.margin == pytest.approx(worst)
        assert chk.ok == (worst > 1.0)


def test_airy_nonresonance(lat2, jmax):
    # l = 0 rows never violate for gamma0 < 1: |j^3| >= 1
    omega = np.array([1.37, 1.71])
    chk = is_airy_nonresonant(omega, 0.99, lat2, jmax)
    if chk.witness is not None:
        assert chk.witness.l
    # engineered omega . l = j^3 inside the truncation: 5 w1 = 8 = 2^3
    bad = np.array([1.6, 1.37])
    chk2 = is_airy_nonresonant(bad, 0.2, lat2, jmax)
    assert not chk2.ok
    w = chk2.witness
    assert w.divisor == pytest.approx(0.0)
    assert abs(w.j) == 2


def test_airy_scan_oracle(lat2, jmax):
    rng = np.random.default_rng(3)
    omega = rng.uniform(1.0, 2.0, 2)
    gamma0 = 0.2
    worst = np.inf
    for l in enumerate_indices(lat2):
        dot = float(np.dot(np.array(l.dense(2), float), omega))
        for j in range(-jmax, jmax + 1):
            if not l and j == 0:
                continue
            worst = min(worst, abs(dot + j**3) / (gamma0 / divisor_weight(l)))
    chk = is_airy_nonresonant(omega, gamma0, lat2, jmax)
    assert chk.margin == pytest.approx(worst)


def test_first_melnikov(lat2, jmax):
    omega = np.array([1.37, 1.71])
    table = airy_table(jmax)
    # l = 0: |Omega(j)| = |j|^3 >= gamma |j|^3 holds for gamma <= 1
    chk = first_melnikov(omega, table, 0.5, lat2)
    assert isinstance(chk.ok, bool)
    # engineered near-resonance: perturb Omega(2) to land on -omega.e1
    bad = table.copy()
    bad[2 + jmax] = -omega[0]
    chk2 = first_melnikov(omega, bad, 0.5, lat2)
    assert not chk2.ok
    assert chk2.witness.j == 2 and chk2.witness.l == E1
    with pytest.raises(ValueError):
        first_melnikov(omega, table[1:], 0.5, lat2)

    # scan oracle
    rng = np.random.default_rng(5)
    omega = rng.uniform(1.0, 2.0, 2)
    worst = np.inf
    for l in enumerate_indices(lat2):
        dot = float(np.dot(np.array(l.dense(2), float), omega))
        for j, om_j in modes(table):
            worst = min(
                worst,
                abs(dot + om_j) / (0.3 * abs(j) ** 3 / divisor_weight(l)),
            )
    assert first_melnikov(omega, table, 0.3, lat2).margin == pytest.approx(worst)


def test_second_melnikov(lat2, jmax):
    omega = np.array([1.37, 1.71])
    table = airy_table(jmax)
    chk = second_melnikov(omega, table, 1e-3, lat2, gbar=0.5)
    assert chk.margin > 0.0
    # the resonant fixture: 2(w1 + w2) = 2^3 - 1^3
    res = np.array([1.7, 1.8])
    chk2 = second_melnikov(res, table, 1e-3, lat2, gbar=0.5)
    assert not chk2.ok
    w = chk2.witness
    assert w.divisor == pytest.approx(0.0)
    assert abs(w.j - w.h) > 0 or w.j is None

    # j = h with l != 0 delegates to the ambient Diophantine condition
    res2 = np.array([1.25, 1.25])
    bad = second_melnikov(res2, table, 1e-3, lat2, gbar=0.5)
    assert not bad.ok
    assert bad.witness.j is None  # Diophantine-class witness

    # scan oracle over triples with the cubic weight
    rng = np.random.default_rng(11)
    omega = rng.uniform(1.0, 2.0, 2)
    small = airy_table(2)
    worst = np.inf
    for l in enumerate_indices(lat2):
        dot = float(np.dot(np.array(l.dense(2), float), omega))
        for j, oj in modes(small):
            for h, oh in modes(small):
                if j == h:
                    continue
                worst = min(
                    worst,
                    abs(dot + oj - oh) / (2 * 0.05 * abs(j**3 - h**3) / divisor_weight(l)),
                )
    got = second_melnikov(omega, small, 0.05, lat2)
    assert got.margin == pytest.approx(worst)


def test_second_melnikov_window(lat2, jmax):
    """The breach at |l|_eta = 6 is reported without N and ignored at N = 5."""
    res = np.array([1.7, 1.8])  # 2(w1 + w2) = 2^3 - 1^3
    table = airy_table(jmax)
    full = second_melnikov(res, table, 1e-3, lat2)
    assert not full.ok and full.margin == 0.0
    assert eta_norm(full.witness.l, lat2.eta) == 6.0
    assert second_melnikov(res, table, 1e-3, lat2, N=6.0) == full
    windowed = second_melnikov(res, table, 1e-3, lat2, N=5.0)
    assert windowed.ok and windowed.witness is None
    worst = min(
        abs(float(np.dot(l.dense(2), res)) + oj - oh)
        / (2e-3 * abs(j**3 - h**3) / divisor_weight(l))
        for l in enumerate_indices(lat2) if eta_norm(l, lat2.eta) <= 5.0
        for j, oj in modes(table) for h, oh in modes(table) if j != h
    )
    assert windowed.margin == pytest.approx(worst)


def test_nesting_and_monotonicity(lat2, jmax):
    rng = np.random.default_rng(15)
    table = airy_table(jmax)
    for _ in range(20):
        omega = rng.uniform(1.0, 2.0, 2)
        m = is_diophantine(omega, 0.5, lat2)
        # passing at gamma implies passing at any smaller gamma
        if m.ok:
            assert is_diophantine(omega, 0.25, lat2).ok
        big = second_melnikov(omega, table, 0.1, lat2)
        if big.ok:
            assert second_melnikov(omega, table, 0.05, lat2).ok


def test_measure_estimate(lat2):
    est_true = measure_estimate(lambda w: True, 300, seed=1, M=2)
    assert est_true.fraction == 1.0 and est_true.ci_high == 1.0
    est_false = measure_estimate(lambda w: False, 300, seed=1, M=2)
    assert est_false.fraction == 0.0 and est_false.ci_low == 0.0
    a = measure_estimate(lambda w: is_diophantine(w, 0.25, lat2).ok, 300, seed=9, M=2)
    b = measure_estimate(lambda w: is_diophantine(w, 0.25, lat2).ok, 300, seed=9, M=2)
    assert a.fraction == b.fraction
    with pytest.raises(ValueError):
        measure_estimate(lambda w: True, 50, seed=0, M=2)


def test_measure_deficit_scaling(lat2):
    deficits = []
    for gamma in (0.5, 0.25, 0.125):
        est = measure_estimate(
            lambda w, g=gamma: is_diophantine(w, g, lat2).ok, 400, seed=4, M=2
        )
        deficits.append(1.0 - est.fraction)
    assert deficits[0] > deficits[1] > deficits[2] > 0.0


def test_smallest_divisor_report(lat2, jmax):
    omega = np.array([1.37, 1.71])
    # no modes (jmax = 0) on a lattice with only l = 0: nothing to scan
    tiny = LatticeParams(1.0, 1, 0.5)
    rep0 = smallest_divisor_report(np.array([1.37]), airy_table(0), tiny)
    assert rep0.note == "no nontrivial triples"
    # hand evaluation: only l = +-e1 nontrivial, no spatial modes
    single = LatticeParams(1.0, 1, 1.0)
    rep1 = smallest_divisor_report(np.array([1.37]), airy_table(0), single)
    assert rep1.value == pytest.approx(2.0 * 1.37)
    assert rep1.witness.j is None
    # diagonal-style scan with the cubic table reproduces the worst
    # first-order witness of the cubic non-resonance scan
    table = airy_table(jmax)
    rep = smallest_divisor_report(omega, table, lat2)
    assert set(rep.classes) == {"pure", "first", "second"}
    chk = is_airy_nonresonant(omega, 0.2, lat2, jmax)
    worst_pair = None
    worst_val = np.inf
    for l in enumerate_indices(lat2):
        dot = float(np.dot(np.array(l.dense(2), float), omega))
        for j in range(-jmax, jmax + 1):
            if j == 0:
                continue
            v = abs(dot - j**3) * divisor_weight(l) / max(1.0, abs(j) ** 3)
            if v < worst_val:
                worst_val, worst_pair = v, (l, j)
    assert rep.classes["first"] == pytest.approx(worst_val)
    del chk, worst_pair


def test_witness_reproduces_violation(lat2, jmax):
    bad = np.array([1.6, 1.37])
    chk = is_airy_nonresonant(bad, 0.2, lat2, jmax)
    w = chk.witness
    dot = float(np.dot(np.array(w.l.dense(2), float), bad))
    assert abs(dot + w.j**3) == pytest.approx(w.divisor)
    assert w.divisor < w.floor
    assert w.floor == pytest.approx(0.2 / divisor_weight(w.l))
