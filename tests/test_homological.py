import numpy as np
import pytest

from airykam.analytic import AnalyticFunction, dx, om_dphi, om_dphi_inv, pi0_perp
from airykam.errors import SmallDivisorError
from airykam.homological import solve_airy, solve_diagonal
from airykam.lattice import MultiIndex

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)


def airy_residual(h, f, omega, lam3=1.0):
    return (om_dphi(h, omega) + lam3 * dx(h, 3) + f).norm(0.0)


def test_solve_airy_zero(lat2, jmax, omega2):
    z = AnalyticFunction.zeros(lat2, jmax)
    assert solve_airy(z, omega2, 0.2).norm(0.0) == 0.0


def test_solve_airy_single_mode(lat2, jmax):
    # omega . l = 0.5 at j = 1: divisor i(0.5 - 1), h = -2i f
    omega = np.array([1.5, 1.25])
    l = MultiIndex((2, -2))          # 3.0 - 2.5 = 0.5
    f = AnalyticFunction(lat2, jmax, {(l, 1): 1.0 + 0j}, real=False)
    h = solve_airy(f, omega, 0.1)
    assert h.get(l, 1) == pytest.approx(-2j)
    assert airy_residual(h, f, omega) < 1e-14


def test_solve_airy_random_residual(lat2, jmax, omega2, rand_fct):
    for seed in range(20):
        f = pi0_perp(rand_fct(seed, amp=0.3))
        h = solve_airy(f, omega2, 0.2)
        assert airy_residual(h, f, omega2) <= 1e-12 * f.norm(0.0)
        assert h.conjugate_symmetry_residual() == 0.0


def test_solve_airy_rejects_mean_and_breach(lat2, jmax, omega2):
    with pytest.raises(ValueError):
        solve_airy(AnalyticFunction.constant(lat2, jmax, 1.0), omega2, 0.2)
    # engineered small divisor: 5 * 1.6 - 2^3 = 0
    omega = np.array([1.6, 1.37])
    f = AnalyticFunction(lat2, jmax, {(MultiIndex((5,)), 2): 1.0 + 0j}, real=False)
    with pytest.raises(SmallDivisorError) as err:
        solve_airy(f, omega, 0.2)
    assert err.value.j == 2


def airy_frequencies(jmax, lam1=0.0):
    """Omega(j) = -j^3 + lam1 j, indexed j + jmax."""
    j = np.arange(-jmax, jmax + 1, dtype=float)
    return -j**3 + lam1 * j


def test_solve_diagonal_reduces_to_airy(lat2, jmax, omega2, rand_fct):
    Omega = airy_frequencies(jmax)
    f = pi0_perp(rand_fct(31, amp=0.2))
    ha = solve_airy(f, omega2, 0.2)
    hd = solve_diagonal(f, omega2, Omega, 0.05)
    assert (ha - hd).norm(0.0) < 1e-14 * ha.norm(0.0)
    # the frequencies must cover every mode |j| <= jmax of f
    with pytest.raises(ValueError):
        solve_diagonal(f, omega2, Omega[1:-1], 0.05)


def test_solve_diagonal_explicit_quotient(lat2, jmax, omega2):
    Omega = airy_frequencies(jmax, lam1=0.03)
    f = AnalyticFunction(lat2, jmax, {(E1, 2): 0.7 + 0j}, real=False)
    h = solve_diagonal(f, omega2, Omega, 0.01)
    div = 1j * (omega2[0] + Omega[2 + jmax])
    assert h.get(E1, 2) == pytest.approx(0.7 / -div)
    # self-verifying residual: (om.d_phi + D) h = -f
    resid = om_dphi(h, omega2)
    out = dict(resid.coeffs)
    for (l, j), c in h.coeffs.items():
        out[(l, j)] = out.get((l, j), 0.0) + 1j * Omega[j + jmax] * c
    total = AnalyticFunction(lat2, jmax, out, real=False) + f
    assert total.norm(0.0) < 1e-13


def test_om_dphi_inv_phi_only(lat2, jmax, omega2):
    z = AnalyticFunction.zeros(lat2, jmax)
    assert om_dphi_inv(z, omega2, 0.4).norm(0.0) == 0.0
    cphi = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.5)])
    b = om_dphi_inv(cphi, omega2, 0.4)
    # cos phi_1 integrates to sin phi_1 / omega_1
    assert b.get(E1, 0) == pytest.approx(0.5 / (1j * omega2[0]))
    rng = np.random.default_rng(4)
    modes = [(MultiIndex((int(rng.integers(-2, 3)), int(rng.integers(-1, 2)))), 0,
              complex(rng.normal(), rng.normal())) for _ in range(5)]
    rhs = AnalyticFunction.from_modes(lat2, jmax, modes)
    rhs = rhs - AnalyticFunction.constant(lat2, jmax, rhs.get(ZERO, 0))
    out = om_dphi_inv(rhs, omega2, 0.4)
    assert (om_dphi(out, omega2) - rhs).norm(0.0) < 1e-13 * max(1.0, rhs.norm(0.0))


def test_amplification_bounded_by_witness_data(lat2, jmax, omega2, rand_fct):
    """The solve amplification never exceeds max d(l) / (gamma |j|^3 v 1)."""
    from airykam.lattice import divisor_weight

    gamma0 = 0.2
    for seed in (3, 5):
        f = pi0_perp(rand_fct(seed, amp=0.5))
        h = solve_airy(f, omega2, gamma0)
        bound = max(
            divisor_weight(l) / gamma0 for (l, _j) in f.coeffs
        )
        assert h.norm(0.0) <= bound * f.norm(0.0) * (1 + 1e-12)


def test_om_dphi_inv_floor_documents_gamma(lat2, jmax):
    """om_dphi_inv carries the configured gamma into the divisor floor."""
    omega = np.array([1.5, 1.5])
    res = MultiIndex((1, -1))
    rhs = AnalyticFunction.from_modes(lat2, jmax, [(res, 0, 1.0)])
    with pytest.raises(SmallDivisorError) as err:
        om_dphi_inv(rhs, omega, 0.4)
    # gamma / ((1 + 1)(1 + 4))
    assert err.value.floor == pytest.approx(0.4 / 10.0)


def test_breach_witness_is_first_in_canonical_order(lat2, jmax):
    """With several resonant coefficients the witness is the first one in the
    enumeration order (eta-norm, then entries)."""
    f = AnalyticFunction(lat2, jmax, {(MultiIndex((2, -2)), 0): 1.0 + 0j,
                                      (MultiIndex((1, -1)), 0): 1.0 + 0j}, real=False)
    with pytest.raises(SmallDivisorError) as err:
        om_dphi_inv(f, np.array([1.5, 1.5]), 0.4)
    assert err.value.l == MultiIndex((1, -1))
    # 5 * 1.6 - 2^3 = 0 and its mirror; (-5) sorts before 5 at equal norm
    f = AnalyticFunction(lat2, jmax, {(MultiIndex((5,)), 2): 1.0 + 0j,
                                      (MultiIndex((-5,)), -2): 1.0 + 0j}, real=False)
    with pytest.raises(SmallDivisorError) as err:
        solve_diagonal(f, np.array([1.6, 1.37]), airy_frequencies(jmax), 0.05)
    assert (err.value.l, err.value.j) == (MultiIndex((-5,)), -2)
