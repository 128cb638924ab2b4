import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airykam.analytic import (
    AnalyticFunction,
    ScalarSeries,
    compose_phi_shift,
    compose_x_diffeo,
    compose_x_translation,
    dumps,
    dx,
    dx_inv,
    invert_phi_shift,
    invert_x_diffeo,
    lipschitz_norm,
    loads,
    moser_compose,
    multiply,
    om_dphi,
    om_dphi_inv,
    phi_average,
    pi0,
    pi0_perp,
    project_N,
    project_N_perp,
)
from airykam import _grid
from airykam.errors import NonContractionError, SmallDivisorError
from airykam.lattice import LatticeParams, MultiIndex, enumerate_indices, get_enumeration

from oracles import by_real_parts, eval_pointwise

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)
E2 = MultiIndex.unit(2)


def cos_x(lat, jmax):
    return AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, 0.5)])


# -- norms -------------------------------------------------------------------


def test_norm_examples(lat2, jmax):
    assert AnalyticFunction.zeros(lat2, jmax).norm(0.0) == 0.0
    two_cos = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 1.0)])
    assert two_cos.norm(0.0) == pytest.approx(2.0)          # e^{ix} + e^{-ix}
    assert cos_x(lat2, jmax).norm(1.0) == pytest.approx(math.e)
    assert two_cos.norm(1.0) == pytest.approx(2.0 * math.e)


def test_norm_weights_phi_and_x_together(lat2, jmax):
    u = AnalyticFunction.from_modes(lat2, jmax, [(E2, 3, 1.0)])
    assert u.norm(0.5) == pytest.approx(2.0 * math.exp(0.5 * (2 + 3)))


# -- products ----------------------------------------------------------------


def test_multiply_identity(lat2, jmax, rand_fct):
    u = rand_fct(3)
    one = AnalyticFunction.constant(lat2, jmax, 1.0)
    assert (multiply(u, one) - u).norm(0.0) < 1e-15 * u.norm(0.0)


def test_multiply_cos_squared(lat2, jmax):
    sq = multiply(cos_x(lat2, jmax), cos_x(lat2, jmax))
    assert sq.get(ZERO, 0) == pytest.approx(0.5)
    assert sq.get(ZERO, 2) == pytest.approx(0.25)
    assert sq.get(ZERO, -2) == pytest.approx(0.25)
    assert len(sq.coeffs) == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_multiply_norm_algebra_pre_truncation(seed):
    # embed in a lattice large enough that no truncation occurs
    lat = LatticeParams(1.0, 2, 40.0)
    jmax = 24
    rng = np.random.default_rng(seed)
    def mk():
        modes = []
        for _ in range(5):
            l = MultiIndex((int(rng.integers(-3, 4)), int(rng.integers(-2, 3))))
            j = int(rng.integers(-4, 5))
            modes.append((l, j, complex(rng.normal(), rng.normal())))
        return AnalyticFunction.from_modes(lat, jmax, modes)
    u, v = mk(), mk()
    s = 0.4
    assert multiply(u, v, prune_rel=0.0).norm(s) <= u.norm(s) * v.norm(s) * (1 + 1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_real_product_sums_the_canonical_half(seed):
    """A real product sums only the canonical rows and mirrors the rest; it agrees with
    the product summed over every target (the non-real path) and is exactly real."""
    lat = LatticeParams(1.0, 2, 5.0)
    jmax = 6
    rng = np.random.default_rng(seed)
    size = len(enumerate_indices(lat))

    def dense_real():
        data = rng.normal(size=(size, 2 * jmax + 1)) + 1j * rng.normal(size=(size, 2 * jmax + 1))
        return AnalyticFunction.from_array(lat, jmax, data)

    u, v = dense_real(), dense_real()
    full = multiply(*(AnalyticFunction.from_array(lat, jmax, w.data, real=False) for w in (u, v)))
    half = multiply(u, v)
    assert half.real and not full.real
    assert np.max(np.abs(half.data - full.data)) <= 1e-14 * np.max(np.abs(full.data))
    assert half.conjugate_symmetry_residual() == 0.0
    assert np.array_equal(half.data, multiply(u, v).data)


def test_reality_closure_bit_exact(rand_fct):
    u, v = rand_fct(10), rand_fct(11)
    assert multiply(u, v).conjugate_symmetry_residual() == 0.0
    assert (u + v).conjugate_symmetry_residual() == 0.0
    assert dx(u, 2).conjugate_symmetry_residual() == 0.0


# -- calculus ----------------------------------------------------------------


def test_dx_and_inverse(lat2, jmax):
    c = cos_x(lat2, jmax)
    minus_sin = dx(c, 1)
    assert minus_sin.get(ZERO, 1) == pytest.approx(0.5j)    # -sin x
    sin = dx_inv(c)
    assert sin.get(ZERO, 1) == pytest.approx(-0.5j)         # sin x
    assert (dx(dx_inv(c)) - c).norm(0.0) == 0.0


def test_dx_inv_rejects_mean(lat2, jmax):
    with pytest.raises(ValueError):
        dx_inv(AnalyticFunction.constant(lat2, jmax, 1.0))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_cauchy_estimate(seed, order):
    """|dx^k u|_sigma <= (k/(e rho))^k |u|_{sigma+rho} with a u-free constant."""
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 10
    rng = np.random.default_rng(seed)
    modes = [
        (MultiIndex((int(rng.integers(-2, 3)), 0)), int(rng.integers(1, jmax + 1)),
         complex(rng.normal(), rng.normal()))
        for _ in range(6)
    ]
    u = AnalyticFunction.from_modes(lat, jmax, modes)
    sigma, rho = 0.2, 0.35
    bound = (order / (math.e * rho)) ** order * u.norm(sigma + rho)
    assert dx(u, order).norm(sigma) <= bound * (1 + 1e-12)


def test_om_dphi_and_inverse(lat2, jmax, omega2):
    const = AnalyticFunction.constant(lat2, jmax, 2.5)
    assert om_dphi(const, omega2).norm(0.0) == 0.0
    mode = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 1.0)], real=False)
    out = om_dphi_inv(mode, omega2, gamma=0.4)
    assert out.get(E1, 0) == pytest.approx(1.0 / (1j * omega2[0]))
    u = AnalyticFunction.from_modes(lat2, jmax, [(E1, 2, 0.3), (E2, -1, 0.7)])
    assert (om_dphi(om_dphi_inv(u, omega2, 0.4), omega2) - u).norm(0.0) < 1e-14


def test_om_dphi_inv_reports_breach(lat2, jmax):
    omega = np.array([1.5, 1.5])
    resonant = MultiIndex((1, -1))
    u = AnalyticFunction.from_modes(lat2, jmax, [(resonant, 1, 1.0)])
    with pytest.raises(SmallDivisorError) as err:
        om_dphi_inv(u, omega, gamma=0.4)
    assert err.value.l in (resonant, -resonant)


# -- projections ---------------------------------------------------------------


def test_projections(lat2, jmax, rand_fct):
    c = cos_x(lat2, jmax)
    assert pi0(c).norm(0.0) == 0.0
    assert (pi0_perp(c) - c).norm(0.0) == 0.0
    u = rand_fct(5, zero_x_avg=False)
    assert ((pi0(u) + pi0_perp(u)) - u).norm(0.0) == 0.0
    assert (pi0(pi0(u)) - pi0(u)).norm(0.0) == 0.0
    assert (project_N(u, lat2.K) - u).norm(0.0) == 0.0
    pn = project_N(u, 2.0)
    assert (project_N(pn, 2.0) - pn).norm(0.0) == 0.0
    assert ((project_N(u, 2.0) + project_N_perp(u, 2.0)) - u).norm(0.0) == 0.0


def test_projection_smoothing_bound(rand_fct):
    u = rand_fct(8)
    N, rho, sigma = 2.0, 0.4, 0.1
    assert project_N_perp(u, N).norm(sigma) <= math.exp(-rho * N) * u.norm(sigma + rho) + 1e-14


def test_phi_average_is_zero_row(lat2, jmax, rand_fct):
    u = rand_fct(9, zero_x_avg=False)
    avg = phi_average(u)
    assert all(not l for (l, _j) in avg.coeffs)
    assert avg.get(ZERO, 2) == u.get(ZERO, 2)


# -- compositions ---------------------------------------------------------------


def test_compose_x_diffeo_trivial_and_constant(lat2, jmax, rand_fct):
    u = rand_fct(21)
    out = compose_x_diffeo(u, AnalyticFunction.zeros(lat2, jmax))
    assert (out - u).norm(0.0) < 1e-13 * u.norm(0.0)
    c = AnalyticFunction.constant(lat2, jmax, 0.3)
    mode = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 1.0)])
    shifted = compose_x_diffeo(mode, c)
    assert shifted.get(ZERO, 1) == pytest.approx(np.exp(0.3j))
    assert shifted.get(ZERO, -1) == pytest.approx(np.exp(-0.3j))


def test_compose_x_diffeo_against_pointwise_oracle(lat2, jmax, sample_points):
    u = cos_x(lat2, jmax)
    alpha = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, -0.05j)])  # 0.1 sin x
    out = compose_x_diffeo(u, alpha)
    phis, xs = sample_points
    a_vals = eval_pointwise(alpha, phis, xs).real
    oracle = eval_pointwise(u, phis, xs + a_vals)
    got = eval_pointwise(out, phis, xs)
    assert np.max(np.abs(got - oracle)) < 1e-11


def test_compose_x_translation_phase_law(lat2, jmax, rand_fct):
    u = rand_fct(31)
    const = AnalyticFunction.constant(lat2, jmax, 0.7)
    out = compose_x_translation(u, const)
    for (l, j), c in u.coeffs.items():
        assert out.get(l, j) == pytest.approx(np.exp(0.7j * j) * c)


def test_compose_phi_shift_single_mode_oracle(lat2, jmax, omega2, sample_points):
    # shift amplitudes sit on site 1 so the induced harmonics fit under K
    u = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 0.5)])
    # site-2 harmonics cost 2 in the eta-norm, so keep them small enough
    # that the out-of-lattice tail sits below the comparison tolerance
    p = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.01), (E2, 0, 0.0002)])
    out = compose_x_translation(u, p)
    phis, xs = sample_points
    p_vals = eval_pointwise(p, phis, xs).real
    oracle = eval_pointwise(u, phis, xs + p_vals)
    assert np.max(np.abs(eval_pointwise(out, phis, xs) - oracle)) < 1e-10

    beta = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.04)])
    out2 = compose_phi_shift(u, beta, omega2)
    b_vals = eval_pointwise(beta, phis, xs).real
    oracle2 = eval_pointwise(u, phis + b_vals[:, None] * omega2[None, :], xs)
    assert np.max(np.abs(eval_pointwise(out2, phis, xs) - oracle2)) < 1e-9


def test_compose_identities_for_zero_amplitude(lat2, jmax, omega2, rand_fct):
    u = rand_fct(41)
    z = AnalyticFunction.zeros(lat2, jmax)
    assert (compose_phi_shift(u, z, omega2) - u).norm(0.0) < 1e-13 * u.norm(0.0)
    assert (compose_x_translation(u, z) - u).norm(0.0) < 1e-13 * u.norm(0.0)


# -- half spectra and non-real fields against full-spectrum references -----------


def random_non_real(lat, jmax, seed):
    """A non-real function with random complex coefficients on every mode."""
    rng = np.random.default_rng(seed)
    shape = AnalyticFunction.zeros(lat, jmax).data.shape
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return AnalyticFunction.from_array(lat, jmax, data, real=False)


def random_real(lat, jmax, seed):
    """The real part of ``random_non_real``: a real function on every mode."""
    return AnalyticFunction.from_array(lat, jmax, random_non_real(lat, jmax, seed).data)


def with_jmax(u, jmax):
    """u truncated (or zero-padded) to the x-modes |j| <= jmax."""
    data = np.zeros((u.data.shape[0], 2 * jmax + 1), dtype=complex)
    k = min(jmax, u.jmax)
    data[:, jmax - k:jmax + k + 1] = u.data[:, u.jmax - k:u.jmax + k + 1]
    return AnalyticFunction.from_array(u.lattice, jmax, data, real=u.real)


def x_columns_fftn(u, sphi):
    """Every x-mode column G_j(phi) of u on the phi grid, |j| <= jmax."""
    G = np.zeros(sphi + (2 * u.jmax + 1,), dtype=complex)
    G[_grid._grid_index(u.lattice, sphi)] = u.data
    return np.fft.ifftn(G, axes=tuple(range(u.lattice.M))) * float(np.prod(sphi))


def x_series_fftn(G, W):
    """sum_j G_j W^j over every x-mode |j| <= jmax, not only j >= 0."""
    jmax = G.shape[-1] // 2
    return sum(G[..., j + jmax, None] * W ** j for j in range(-jmax, jmax + 1))


def retained_fftn(vals, lat, jmax):
    """The modes |j| <= jmax of grid values, from one complex fftn."""
    spec = np.fft.fftn(vals) / float(np.prod(vals.shape))
    return spec[_grid._grid_index(lat, vals.shape)][:, np.arange(-jmax, jmax + 1) % vals.shape[-1]]


def grid_values_ifftn(u, sizes):
    """Values of u on the grid ``sizes`` from a complex ifftn of its full
    spectrum (every x-mode |j| <= jmax, folded onto the x axis)."""
    nx = sizes[-1]
    rows = np.zeros((u.data.shape[0], nx), dtype=complex)
    np.add.at(rows, (slice(None), np.arange(-u.jmax, u.jmax + 1) % nx), u.data)
    spec = np.zeros(sizes, dtype=complex)
    spec[_grid._grid_index(u.lattice, sizes)] = rows
    return np.fft.ifftn(spec) * float(np.prod(sizes))


def compose_x_diffeo_fftn(u, alpha, factor=2):
    """Full-spectrum reference for compose_x_diffeo: sum_j G_j W^j over every
    x-mode |j| <= jmax with W = e^{i(x + alpha)}, then one complex fftn."""
    sizes = _grid.grid_sizes(u.lattice, max(u.jmax, alpha.jmax), factor)
    nx = sizes[-1]
    W = np.exp(1j * (2.0 * np.pi * np.arange(nx) / nx + grid_values_ifftn(alpha, sizes).real))
    val = x_series_fftn(x_columns_fftn(u, sizes[:-1]), W)
    return retained_fftn(val, u.lattice, u.jmax)


@pytest.mark.parametrize("u_jmax,alpha_jmax", [(10, 10), (6, 10), (10, 6)])
def test_compose_x_diffeo_half_spectrum(lat2, jmax, rand_fct, u_jmax, alpha_jmax):
    u = with_jmax(rand_fct(51, jspan=8), u_jmax)
    alpha = with_jmax(0.01 * rand_fct(52, jspan=8), alpha_jmax)
    got = compose_x_diffeo(u, alpha, alias_tol=1.0)
    assert got.real and got.jmax == u_jmax
    oracle = compose_x_diffeo_fftn(u, alpha)
    assert np.max(np.abs(got.data - oracle)) <= 1e-14 * u.norm(0.0)


def test_compose_x_diffeo_of_a_non_real_field(lat2, jmax, rand_fct):
    """The kernel refuses a non-real u; its two real parts, each mapped by the
    kernel, give the full sum of u."""
    u = random_non_real(lat2, jmax, 59)
    alpha = 0.01 * rand_fct(52, jspan=8)
    with pytest.raises(ValueError, match="real-on-real"):
        compose_x_diffeo(u, alpha, alias_tol=1.0)
    got = by_real_parts(lambda v: compose_x_diffeo(v, alpha, alias_tol=1.0), u)
    oracle = compose_x_diffeo_fftn(u, alpha)
    assert np.max(np.abs(got.data - oracle)) <= 1e-14 * u.norm(0.0)
    # a real mode under a small alpha: no rounding noise at or below the floor is kept
    mode = AnalyticFunction.from_modes(lat2, jmax, [(E1, 3, 1.0)])
    alpha = 1e-4 * rand_fct(52, jspan=8)
    got = compose_x_diffeo(mode, alpha, alias_tol=1.0)
    assert np.max(np.abs(got.data - compose_x_diffeo_fftn(mode, alpha))) <= 1e-14
    mag = np.abs(got.data)
    assert np.all((mag == 0.0) | (mag > 8e-16 * mag.max()))


def test_phi_shift_and_translation_of_a_non_real_field(lat2, jmax, omega2, sample_points):
    """Both kernels refuse a non-real field; on a real field on every mode the
    translation keeps its phase law and the phi-shift its pointwise oracle."""
    p = AnalyticFunction.constant(lat2, jmax, 0.7)
    beta = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.04)])
    with pytest.raises(ValueError, match="real-on-real"):
        compose_x_translation(random_non_real(lat2, jmax, 53), p)
    with pytest.raises(ValueError, match="real-on-real"):
        compose_phi_shift(random_non_real(lat2, jmax, 53), beta, omega2)

    u = random_real(lat2, jmax, 53)
    out = compose_x_translation(u, p)
    assert out.real
    phase = np.exp(0.7j * np.arange(-jmax, jmax + 1))
    assert np.max(np.abs(out.data - phase * u.data)) <= 1e-14 * np.max(np.abs(u.data))

    mode = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 0.5), (E1, -1, 0.3j)])
    out = compose_phi_shift(mode, beta, omega2)
    assert out.real
    phis, xs = sample_points
    b_vals = eval_pointwise(beta, phis, xs).real
    oracle = eval_pointwise(mode, phis + b_vals[:, None] * omega2[None, :], xs)
    assert np.max(np.abs(eval_pointwise(out, phis, xs) - oracle)) < 1e-9


def test_x_kernels_of_a_non_real_phi_only_field(lat2, jmax, rand_fct):
    """A field with jmax = 0 has no x-modes j != 0 to sum: the kernel refuses it
    when it is non-real and leaves it as it is when it is real."""
    modes = [(ZERO, 0, 1.0), (E1, 0, 0.3j), (E2, 0, 0.2)]
    alpha = 0.01 * rand_fct(57, jspan=6)
    assert alpha.jmax > 0
    with pytest.raises(ValueError, match="real-on-real"):
        compose_x_diffeo(AnalyticFunction.from_modes(lat2, 0, modes, real=False), alpha)
    u = AnalyticFunction.from_modes(lat2, 0, modes)
    got = compose_x_diffeo(u, alpha, alias_tol=1.0)
    assert np.max(np.abs(got.data - u.data)) <= 1e-14 * u.norm(0.0)
    b = AnalyticFunction.from_modes(lat2, 0, [(ZERO, 0, 0.01), (E1, 0, 0.003j), (E2, 0, 0.002)])
    got = invert_x_diffeo(b)
    assert np.max(np.abs((got + b).data)) <= 1e-14 * b.norm(0.0)


def test_invert_x_diffeo_half_spectrum(lat2, rand_fct):
    """The fixed point against one iterated with the full x-series and fftn."""
    alpha = 0.005 * rand_fct(54, zero_x_avg=False)
    got = invert_x_diffeo(alpha)
    assert got.real
    sizes = _grid.grid_sizes(lat2, alpha.jmax)
    nx = sizes[-1]
    G = x_columns_fftn(alpha, sizes[:-1])
    y = 2.0 * np.pi * np.arange(nx) / nx
    t = np.zeros(sizes)
    for _ in range(100):
        t_next = -x_series_fftn(G, np.exp(1j * (y + t))).real
        step = np.max(np.abs(t_next - t))
        t = t_next
        if step <= 1e-16:
            break
    oracle = retained_fftn(t, lat2, alpha.jmax)
    assert np.max(np.abs(got.data - oracle)) <= 1e-14 * alpha.norm(0.0)


def test_moser_compose_half_spectrum(lat2, rand_fct):
    """fn(u) on real grid values against fn of the full complex grid values."""
    inv_cbrt = ScalarSeries(lambda z: (1.0 + z) ** (-1.0 / 3.0), 0.9, "inv-cbrt")
    u = 0.05 * rand_fct(58, jspan=6)
    got = moser_compose(inv_cbrt, u, alias_tol=1.0)
    assert got.real and not u.phi_only
    vals = inv_cbrt.fn(grid_values_ifftn(u, _grid.grid_sizes(lat2, u.jmax)))
    oracle = retained_fftn(vals, lat2, u.jmax)
    assert np.max(np.abs(got.data - oracle)) <= 1e-14


def test_inverse_and_series_reject_a_non_real_argument(lat2, jmax, omega2, rand_fct):
    """Every grid kernel refuses a non-real field, and a refused call writes no report."""
    u = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 0.01)], real=False)
    with pytest.raises(ValueError, match="real-on-real"):
        invert_x_diffeo(u)
    inv_cbrt = ScalarSeries(lambda z: (1.0 + z) ** (-1.0 / 3.0), 0.9, "inv-cbrt")
    with pytest.raises(ValueError, match="real-on-real"):
        moser_compose(inv_cbrt, u)
    with pytest.raises(ValueError, match="real-on-real"):
        invert_phi_shift(AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.01j)], real=False),
                         omega2)
    alpha = 0.01 * rand_fct(64, jspan=6)
    beta = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.04)])
    p = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.3), (ZERO, 0, 0.2)])
    for kernel in (lambda v, r: compose_x_diffeo(v, alpha, alias_tol=1.0, report=r),
                   lambda v, r: compose_phi_shift(v, beta, omega2, alias_tol=1.0, report=r),
                   lambda v, r: compose_x_translation(v, p, alias_tol=1.0, report=r)):
        rep = {}
        with pytest.raises(ValueError, match="real-on-real"):
            kernel(u, rep)
        assert rep == {}
        kernel(AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 0.01)]), rep)
        assert set(rep) == {"alias_rel", "discard_rel"}


def extract_fftn(vals, lattice, jmax):
    """Full-spectrum reference for ``_extract`` of real grid values: the
    coefficients, alias share and discard share from one complex fftn."""
    sizes = vals.shape
    spec = np.fft.fftn(vals) / float(np.prod(sizes))
    mag = np.abs(spec)
    caps = [2 * b for b in get_enumeration(lattice).bounds] + [2 * jmax]
    freqs = np.meshgrid(*[np.abs(np.fft.fftfreq(n, 1.0 / n)) for n in sizes], indexing="ij")
    outer = np.any([f > cap for f, cap in zip(freqs, caps)], axis=0)
    rows = spec[_grid._grid_index(lattice, sizes)]
    modes = np.arange(-jmax, jmax + 1)
    on_axis = np.abs(modes) <= sizes[-1] // 2   # a one-point x axis holds the mode 0 alone
    data = np.zeros((rows.shape[0], 2 * jmax + 1), dtype=complex)
    data[:, on_axis] = rows[:, modes[on_axis] % sizes[-1]]
    data[np.abs(data) <= 8e-16 * mag.max()] = 0.0
    total = mag.sum()
    return data, mag[outer].sum() / total, (total - np.abs(data).sum()) / total


@pytest.mark.parametrize("nx", [1, 45, 48])
@pytest.mark.parametrize("noise", [1.0, 1e-4])
def test_extract_half_spectrum_matches_full(lat2, jmax, rand_fct, nx, noise):
    """rfftn of real grid values: same coefficients, alias and discard shares as
    fftn, for an odd x axis, an even one (whose Nyquist column counts once) and
    the one-point axis of a function of phi."""
    sizes = _grid.phi_sizes(lat2, 2) + (nx,)
    rng = np.random.default_rng(55)
    vals = grid_values_ifftn(rand_fct(56, jspan=6), sizes).real + noise * rng.normal(size=sizes)
    report = {}
    got = _grid._extract(vals, lat2, jmax, alias_tol=np.inf, context="t", report=report)
    data, alias_rel, discard_rel = extract_fftn(vals, lat2, jmax)
    assert np.max(np.abs(got.data - data)) <= 1e-14 * np.max(np.abs(data))
    assert alias_rel > 0.0 and discard_rel > 0.0
    assert report["alias_rel"] == pytest.approx(alias_rel, rel=1e-12)
    assert report["discard_rel"] == pytest.approx(discard_rel, rel=1e-12)


# -- inversion -------------------------------------------------------------------


def test_invert_x_diffeo(lat2, omega2):
    jmax = 16
    alpha = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, -0.05j)])  # 0.1 sin x
    assert invert_x_diffeo(AnalyticFunction.zeros(lat2, jmax)).norm(0.0) == 0.0
    const = AnalyticFunction.constant(lat2, jmax, 0.2)
    assert (invert_x_diffeo(const) + const).norm(0.0) < 1e-12
    report = {}
    at = invert_x_diffeo(alpha, report=report)
    resid = compose_x_diffeo(alpha, at) + at
    assert resid.norm(0.0) < 1e-12
    assert report["fixed_point_residual"] <= 1e-13


def test_invert_phi_shift(lat2, jmax, omega2):
    beta = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.01), (E2, 0, 0.0002j)])
    report = {}
    bt = invert_phi_shift(beta, omega2, report=report)
    resid = compose_phi_shift(beta, bt, omega2) + bt
    assert resid.norm(0.0) < 1e-10
    assert report["fixed_point_residual"] <= 1e-13


def test_inversions_refuse_non_contractions(lat2, jmax, omega2):
    sin_x = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, -0.5j)])    # |alpha_x|_0 = 1
    cos_phi = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.5)])      # slope omega_1
    with pytest.raises(NonContractionError, match="too large to invert"):
        invert_x_diffeo(sin_x)
    with pytest.raises(NonContractionError, match="too large to invert"):
        invert_phi_shift(cos_phi, omega2)
    with pytest.raises(NonContractionError, match="no contraction after 1 iterations"):
        invert_x_diffeo(0.1 * sin_x, max_iter=1)
    with pytest.raises(NonContractionError, match="no contraction after 1 iterations"):
        invert_phi_shift(0.1 * cos_phi, omega2, max_iter=1)


# -- scalar series -----------------------------------------------------------------


def test_moser_compose(lat2, jmax):
    inv_cbrt = ScalarSeries(lambda z: (1.0 + z) ** (-1.0 / 3.0), 0.9, "inv-cbrt")
    ident = ScalarSeries(lambda z: z, np.inf, "id")
    u = 0.2 * cos_x(lat2, jmax)
    assert (moser_compose(ident, u) - u).norm(0.0) < 1e-14
    const = moser_compose(inv_cbrt, AnalyticFunction.zeros(lat2, jmax))
    assert const.get(ZERO, 0) == pytest.approx(1.0)
    out = moser_compose(inv_cbrt, u)
    # grid-pointwise oracle at the retained modes
    xs = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    truth = (1.0 + 0.2 * np.cos(xs)) ** (-1.0 / 3.0)
    coeff_truth = np.fft.fft(truth) / len(xs)
    for j in range(-jmax, jmax + 1):
        assert out.get(ZERO, j) == pytest.approx(coeff_truth[j % len(xs)], abs=1e-13)
    with pytest.raises(ValueError):
        moser_compose(ScalarSeries(lambda z: z, 0.1, "tight"), u)


def test_moser_compose_phi_only(lat2, jmax):
    """A non-constant function of phi alone goes through the phi grid."""
    inv_cbrt = ScalarSeries(lambda z: (1.0 + z) ** (-1.0 / 3.0), 0.9, "inv-cbrt")
    u = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.1), (E2, 0, 0.025j)])
    out = moser_compose(inv_cbrt, u)
    assert out.phi_only
    # grid-pointwise oracle at the retained modes
    n = 64
    th = 2.0 * np.pi * np.arange(n) / n
    phis = np.stack(np.meshgrid(th, th, indexing="ij"), axis=-1).reshape(-1, 2)
    truth = (1.0 + eval_pointwise(u, phis, np.zeros(len(phis))).real) ** (-1.0 / 3.0)
    coeff_truth = np.fft.fft2(truth.reshape(n, n)) / n**2
    for l in enumerate_indices(lat2):
        k1, k2 = l.dense(2)
        assert out.get(l, 0) == pytest.approx(coeff_truth[k1 % n, k2 % n], abs=1e-13)


# -- Lipschitz family ----------------------------------------------------------------


def test_lipschitz_norm(lat2, jmax):
    u = cos_x(lat2, jmax)
    om = [np.array([1.1, 1.5]), np.array([1.3, 1.5]), np.array([1.2, 1.9])]
    fams = [u, 2.0 * u, 1.5 * u]
    sigma, gamma = 0.2, 0.5
    # constant family: sup part only
    assert lipschitz_norm([(om[0], u), (om[1], u)], gamma, sigma) == pytest.approx(u.norm(sigma))
    # two-point quotient
    got = lipschitz_norm([(om[0], u), (om[1], 2.0 * u)], gamma, sigma)
    assert got == pytest.approx(2.0 * u.norm(sigma) + gamma * u.norm(sigma) / 0.2)
    # all-pairs oracle on three samples
    sup = max(f.norm(sigma) for f in fams)
    lip = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            h = np.max(np.abs(om[a] - om[b]))
            lip = max(lip, (fams[a] - fams[b]).norm(sigma) / h)
    assert lipschitz_norm(list(zip(om, fams)), gamma, sigma) == pytest.approx(sup + gamma * lip)
    with pytest.raises(ValueError):
        lipschitz_norm([(om[0], u), (om[0], u)], gamma, sigma)


# -- serialization ------------------------------------------------------------------


def test_serialization_roundtrip(rand_fct):
    u = rand_fct(77, zero_x_avg=False)
    text = dumps(u)
    v = loads(text)
    assert v.coeffs == u.coeffs
    assert v.lattice == u.lattice and v.jmax == u.jmax and v.real == u.real
    doc = json.loads(text)
    assert doc["zero_x_average"] == u.zero_x_average


# dumps of this function, captured before the coefficients moved from a dict
# keyed by MultiIndex to the lattice-index array: it pins the format and the
# canonical coefficient order (eta-norm, entries, j) at a non-integer eta
PINNED_DUMPS = (
    '{"entries":[[[],-3,0.0,-0.75],[[],3,0.0,0.75],[[[1,-1]],-1,0.25,0.5],'
    '[[[1,1]],1,0.25,-0.5],[[[1,-2]],0,0.5,0.0],[[[1,2]],0,0.5,0.0],'
    '[[[1,-1],[2,1]],2,0.125,0.0],[[[1,1],[2,-1]],-2,0.125,0.0]],'
    '"jmax":3,"lattice":{"K":3.0,"M":2,"eta":0.7},"real":true,"zero_x_average":false}'
)


def test_dumps_pinned_format_and_order():
    lat = LatticeParams(0.7, 2, 3.0)
    u = AnalyticFunction.from_modes(lat, 3, [
        (MultiIndex((1, 0)), 1, 0.25 - 0.5j),
        (MultiIndex((-1, 1)), 2, 0.125),
        (MultiIndex((0, -2)), -1, 1e-3 + 2e-3j),     # |l|_eta = 2^1.7 > K: dropped
        (MultiIndex(()), 3, 0.75j),
        (MultiIndex((2, 0)), 0, 0.5),
    ])
    assert dumps(u) == PINNED_DUMPS
    assert dumps(loads(PINNED_DUMPS)) == PINNED_DUMPS
