import numpy as np
import pytest

from airykam.analytic import (
    AnalyticFunction,
    compose_x_diffeo,
    dx,
    invert_x_diffeo,
    multiply,
    om_dphi,
    pi0,
    pi0_perp,
    substitute_inverse,
)
from airykam.conjugation import (
    QuadraticForm,
    QuadraticPerturbation,
    TransformationData,
    apply_transform,
    apply_transform_inverse,
    build_time_reparam,
    build_translation,
    build_x_diffeo,
    conjugate_step,
    evaluate_quadratic,
    homological_identity_residuals,
    linearize_quadratic,
    moser_power,
    push_quadratic,
    symplectic_pairing,
)
from airykam.conjugation import _transported_coefficients
from airykam.lattice import MultiIndex
from airykam.opalg import DifferentialOperator
from oracles import by_real_parts, perturbed_operator

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)
E2 = MultiIndex.unit(2)


def zero_fct(lat, jmax):
    return AnalyticFunction.zeros(lat, jmax)


def quadratic_fixture(lat, jmax):
    const = lambda v: AnalyticFunction.constant(lat, jmax, v)
    return QuadraticForm(lat, jmax, {
        (1, 3): const(6.0), (2, 2): const(6.0), (1, 2): const(2.0),
        (0, 3): const(1.0), (0, 1): const(-6.0),
    })


def generic_perturbation(lat, jmax, scale=1e-3):
    d3 = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 1, 0.4 * scale), (ZERO, 2, (2 - 1j) * 0.1 * scale)]
    )
    d1 = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 0, 0.3 * scale), (ZERO, 1, 0.2 * scale)]
    )
    d0 = AnalyticFunction.from_modes(lat, jmax, [(E2, 1, 0.1 * scale)])
    return QuadraticPerturbation(d3, 2.0 * dx(d3, 1), d1, d0)


def generic_operator(lat, jmax, omega):
    B = AnalyticFunction.from_modes(lat, jmax, [(E1, 1, 5e-4)]) + 0.03
    C = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, -2e-4)])
    return DifferentialOperator(omega, 1.0, B, C)


# -- stage builders -------------------------------------------------------------


def test_build_x_diffeo_trivial(lat2, jmax):
    alpha, m3 = build_x_diffeo(1.0, zero_fct(lat2, jmax))
    assert alpha.norm(0.0) == 0.0
    assert m3.get(ZERO, 0) == pytest.approx(1.0)


def test_build_x_diffeo_cosine_quadrature_oracle(lat2, jmax):
    eps = 0.1
    d3 = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, eps / 2)])
    alpha, m3 = build_x_diffeo(1.0, d3)
    xs = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    m3_quad = float(np.mean((1.0 + eps * np.cos(xs)) ** (-1.0 / 3.0))) ** (-3)
    assert complex(m3.get(ZERO, 0)).real == pytest.approx(m3_quad, rel=1e-12)
    # homological identity on the retained modes
    jac = 1.0 + dx(alpha, 1)
    resid = multiply(d3 + 1.0, multiply(jac, multiply(jac, jac))) - m3
    assert resid.norm(0.0) < 1e-10
    assert alpha.zero_x_average


def test_build_x_diffeo_phi_dependent(lat2, jmax):
    # eps cos(phi_1) cos(x): the x-average genuinely depends on phi
    d3 = AnalyticFunction.from_modes(lat2, jmax, [(E1, 1, 0.02), (E1, -1, 0.02)])
    alpha, m3 = build_x_diffeo(1.0, d3)
    assert any(l for (l, _j) in m3.coeffs)      # m3 varies with phi
    assert alpha.zero_x_average
    jac = 1.0 + dx(alpha, 1)
    resid = multiply(d3 + 1.0, multiply(jac, multiply(jac, jac))) - m3
    assert resid.norm(0.0) < 1e-10


def test_build_time_reparam(lat2, jmax, omega2):
    const = AnalyticFunction.constant(lat2, jmax, 1.3)
    lam, beta = build_time_reparam(const, omega2, 0.5)
    assert lam == pytest.approx(1.3)
    assert beta.norm(0.0) == 0.0
    m3 = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.05)]) + 1.0
    lam, beta = build_time_reparam(m3, omega2, 0.5)
    assert lam == pytest.approx(1.0)
    # single-mode division: eps cos phi_1 -> eps sin phi_1 / omega_1
    assert beta.get(E1, 0) == pytest.approx(0.05 / (1j * omega2[0]))
    resid = lam * (1.0 + om_dphi(beta, omega2)) - m3
    assert resid.norm(0.0) < 1e-12


def test_build_translation(lat2, jmax, omega2):
    a1 = AnalyticFunction.constant(lat2, jmax, 0.2)
    p, lam1p = build_translation(a1, a1, 0.2, omega2, 0.5)
    assert p.norm(0.0) == 0.0 and lam1p == pytest.approx(0.2)
    c1 = a1 + AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.5)])
    p, lam1p = build_translation(c1, a1, 0.2, omega2, 0.5)
    # c1 - a1 = cos phi_1: p = -sin phi_1 / omega_1, lambda1 unchanged
    assert lam1p == pytest.approx(0.2)
    assert p.get(E1, 0) == pytest.approx(-0.5 / (1j * omega2[0]))


# -- the full step ---------------------------------------------------------------


def test_conjugate_step_trivial(lat2, jmax, omega2):
    z = zero_fct(lat2, jmax)
    L = DifferentialOperator(omega2, 1.0, z, z)
    qp = QuadraticPerturbation(z, z, z, z)
    res = conjugate_step(L, qp, 0.5)
    T = res.transform
    assert T.alpha.norm(0.0) == 0.0 and T.beta.norm(0.0) == 0.0
    assert T.p.norm(0.0) == 0.0
    assert res.L_plus.lambda3 == pytest.approx(1.0)
    assert res.L_plus.B.norm(0.0) < 1e-12
    assert res.L_plus.C.norm(0.0) < 1e-12


def test_conjugate_step_x_only_third_order(lat2, jmax, omega2):
    """d3 = eps cos x alone: constant m3, no time reparametrization."""
    z = zero_fct(lat2, jmax)
    L = DifferentialOperator(omega2, 1.0, z, z)
    eps = 1e-3
    d3 = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, eps / 2)])
    qp = QuadraticPerturbation(d3, 2.0 * dx(d3, 1), z, z)
    res = conjugate_step(L, qp, 0.5)
    assert res.transform.beta.norm(0.0) == 0.0
    xs = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    lam3_quad = float(np.mean((1.0 + eps * np.cos(xs)) ** (-1.0 / 3.0))) ** (-3)
    assert res.L_plus.lambda3 == pytest.approx(lam3_quad, rel=1e-12)
    for key in ("identity_x_diffeo", "identity_time_reparam", "identity_multiplier"):
        assert res.report[key] < 1e-10


def test_conjugate_step_generic(lat2, jmax, omega2):
    L = generic_operator(lat2, jmax, omega2)
    qp = generic_perturbation(lat2, jmax)
    res = conjugate_step(L, qp, 0.5)
    rep = res.report
    assert rep["hamiltonian_defect"] < 1e-15
    assert rep["b2_norm"] < 1e-10
    assert rep["third_order_defect"] < 1e-10
    for key in ("identity_x_diffeo", "identity_time_reparam", "identity_multiplier"):
        assert rep[key] < 1e-10
    # coefficient drift is linear in the perturbation size
    drift_full = (res.L_plus.B - L.B).norm(0.0) + (res.L_plus.C - L.C).norm(0.0)
    qp_half = generic_perturbation(lat2, jmax, scale=5e-4)
    res_half = conjugate_step(L, qp_half, 0.5)
    drift_half = (res_half.L_plus.B - L.B).norm(0.0) + (res_half.L_plus.C - L.C).norm(0.0)
    assert 0.3 < drift_half / drift_full < 0.7
    # multiplier converges to one with the perturbation
    r_full = (res.transform.r - 1.0).norm(0.0)
    r_half = (res_half.transform.r - 1.0).norm(0.0)
    assert r_half <= 0.7 * r_full


# -- the transported coefficients against the probe reference ---------------------


def unit(lattice, jmax, p, j):
    """The complex mode e^{i(l_p.phi + j x)}."""
    u = AnalyticFunction.zeros(lattice, jmax, real=False)
    u.data[p, j + jmax] = 1.0
    return u


def mode_shift(u, s):
    """Multiply by e^{i s x}: (l, j) -> (l, j + s), dropping the fallen band."""
    out = np.zeros_like(u.data)
    if s >= 0:
        out[:, s:] = u.data[:, :out.shape[1] - s]
    else:
        out[:, :s] = u.data[:, -s:]
    return AnalyticFunction.from_array(u.lattice, u.jmax, out, real=False)


def probe_transport(L, qp, alpha, alpha_tilde):
    """Reference for e3..e0: T1^{-1} (L + Q') T1 applied to e^{iky}, k = 1..4,
    shifted back by e^{-iky}, and the 4x4 Vandermonde system in (ik)^m solved
    for the coefficient functions.  The shift drops the top k x-modes of probe
    k, so the top four x-modes of every e_m are only approximate."""
    lat, jmax = L.lattice, L.jmax
    jac = 1.0 + dx(alpha, 1)
    jac_t = 1.0 + dx(alpha_tilde, 1)
    l0q_apply = perturbed_operator(L, qp)
    probes = []
    for k in range(1, 5):
        w = multiply(jac, by_real_parts(lambda v: compose_x_diffeo(v, alpha), unit(lat, jmax, 0, k)))
        w = l0q_apply(w)
        w = multiply(jac_t, by_real_parts(lambda v: compose_x_diffeo(v, alpha_tilde), w))
        probes.append(mode_shift(w, -k).data)
    V = np.array([[(1j * k) ** m for m in range(4)] for k in range(1, 5)])
    coeffs = np.tensordot(np.linalg.inv(V), np.array(probes), axes=1)
    return tuple(AnalyticFunction.from_array(lat, jmax, c) for c in coeffs[::-1])


def test_transported_coefficients_match_the_probes(lat2, jmax, omega2):
    """The closed-form e3..e0 against the probe reference, on the generic step's
    inputs, to the probe's own error (1.8e-12 absolute, at x-modes |j| = 8)."""
    L = generic_operator(lat2, jmax, omega2)
    qp = generic_perturbation(lat2, jmax)
    alpha, _m3 = build_x_diffeo(L.lambda3, qp.d3)
    alpha_tilde = invert_x_diffeo(alpha)
    got = _transported_coefficients(L, qp, alpha, alpha_tilde)
    ref = probe_transport(L, qp, alpha, alpha_tilde)
    for e, e_ref in zip(got, ref):
        assert e.real
        assert np.max(np.abs(e.data - e_ref.data)) <= 5e-12


def test_transported_coefficients_of_a_constant_shift(lat2, jmax, omega2):
    """alpha = c: J = 1 and psi(y) = y - c, so e_m = p_m(phi, y - c) and the
    mode j of p_m turns by e^{-ijc}."""
    L = generic_operator(lat2, jmax, omega2)
    qp = generic_perturbation(lat2, jmax)
    c = 0.3
    alpha = AnalyticFunction.constant(lat2, jmax, c)
    got = _transported_coefficients(L, qp, alpha, -alpha)
    phase = np.exp(-1j * c * np.arange(-jmax, jmax + 1))
    for e, p in zip(got, (qp.d3 + L.lambda3, qp.d2, L.B + qp.d1, L.C + qp.d0)):
        assert np.max(np.abs(e.data - phase * p.data)) <= 1e-14


def test_conjugate_step_reports_each_inversion(lat2, jmax, omega2):
    """Both grid inversions keep their own residuals (default tolerances:
    Picard step 1e-13, aliasing energy 1e-7)."""
    rep = conjugate_step(generic_operator(lat2, jmax, omega2),
                         generic_perturbation(lat2, jmax), 0.5).report
    for key in ("invert_x_diffeo", "invert_phi_shift"):
        entry = rep[key]
        assert entry["fixed_point_residual"] <= 1e-13
        assert entry["alias_rel"] <= 1e-7
        assert 0.0 <= entry["discard_rel"] <= 1.0
    assert rep["invert_x_diffeo"]["fixed_point_residual"] > 0.0


def test_normalized_first_order_average(lat2, jmax, omega2):
    L = generic_operator(lat2, jmax, omega2)
    qp = generic_perturbation(lat2, jmax)
    res = conjugate_step(L, qp, 0.5)
    avg = pi0(res.L_plus.B)
    const = complex(avg.get(ZERO, 0))
    rest = (avg - AnalyticFunction.constant(lat2, jmax, const)).norm(0.0)
    assert rest < 1e-12
    assert const.real == pytest.approx(res.transform.lambda1_plus, abs=1e-12)


# -- applying the transform --------------------------------------------------------


def test_apply_transform_identity_and_roundtrip(lat2, jmax, omega2, rand_fct):
    T0 = TransformationData.identity(lat2, jmax, omega2)
    u = rand_fct(3)
    assert (apply_transform(T0, u) - u).norm(0.0) == 0.0
    res = conjugate_step(generic_operator(lat2, jmax, omega2),
                         generic_perturbation(lat2, jmax), 0.5)
    w = apply_transform(res.transform, u)
    back = apply_transform_inverse(res.transform, w)
    assert (back - u).norm(0.0) < 1e-10 * u.norm(0.0)


def test_substitution_inverse_drops_jacobian(lat2, jmax, omega2):
    res = conjugate_step(generic_operator(lat2, jmax, omega2),
                         generic_perturbation(lat2, jmax), 0.5)
    T = res.transform
    one = AnalyticFunction.constant(lat2, jmax, 1.0)
    # substitutions fix constants; the full inverse multiplies by the Jacobian
    (moved,) = substitute_inverse([one], T.alpha_tilde, T.beta_tilde, T.p, T.omega)
    assert (moved - one).norm(0.0) < 1e-12
    with_jac = apply_transform_inverse(T, one)
    assert (with_jac - one).norm(0.0) > 1e-5


def test_symplectic_pairing_preserved_without_reparam(lat2, jmax, omega2):
    """beta = 0 transforms preserve the pairing exactly."""
    z = zero_fct(lat2, jmax)
    L = DifferentialOperator(omega2, 1.0, z, z)
    d3 = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 5e-4)])
    d1 = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 5e-4)])  # drives p
    qp = QuadraticPerturbation(d3, 2.0 * dx(d3, 1), d1, z)
    res = conjugate_step(L, qp, 0.5)
    T = res.transform
    assert T.beta.norm(0.0) == 0.0
    assert T.p.norm(0.0) > 1e-5 and T.alpha.norm(0.0) > 1e-5
    rng = np.random.default_rng(8)
    shared = [(ZERO, 1), (E1, 2), (E2, -1), (MultiIndex((1, -1)), 3)]
    worst = 0.0
    for _ in range(20):
        u = AnalyticFunction.from_modes(
            lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
        )
        v = AnalyticFunction.from_modes(
            lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
        )
        p0 = symplectic_pairing(u, v)
        p1 = symplectic_pairing(apply_transform(T, u), apply_transform(T, v))
        worst = max(worst, abs(p1 - p0) / max(abs(p0), 1e-12))
    assert worst < 1e-10


def test_symplectic_pairing_with_reparam_weight(lat2, jmax, omega2):
    """With beta != 0 the pairing is preserved against the reparametrization
    weight 1 + om.d_phi(beta) composed into the average."""
    L = generic_operator(lat2, jmax, omega2)
    res = conjugate_step(L, generic_perturbation(lat2, jmax), 0.5)
    T = res.transform
    assert T.beta.norm(0.0) > 0.0
    rng = np.random.default_rng(9)
    shared = [(ZERO, 1), (E1, 2), (MultiIndex((1, -1)), 3)]
    u = AnalyticFunction.from_modes(
        lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
    )
    v = AnalyticFunction.from_modes(
        lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
    )
    p0 = symplectic_pairing(u, v)
    tu, tv = apply_transform(T, u), apply_transform(T, v)
    # weighted pairing: conjugate the x-pairing density by the phi change of
    # variables, whose Jacobian is 1 + om.d_phi beta
    from airykam.analytic import compose_phi_shift, dx_inv, mean_phi_x

    dens_modes = {}
    ui = dx_inv(pi0_perp(tu))
    for (l, j), c in ui.coeffs.items():
        for (l2, j2), c2 in tv.coeffs.items():
            if j2 == -j:
                key = l + l2
                dens_modes[(key, 0)] = dens_modes.get((key, 0), 0.0) + c * c2
    dens = AnalyticFunction(lat2, jmax, dens_modes, real=False)
    jac = 1.0 + om_dphi(T.beta, omega2)
    weighted = complex(mean_phi_x(multiply(dens, jac)))
    assert abs(weighted - p0) / abs(p0) < 1e-8
    del compose_phi_shift


# -- quadratic transport --------------------------------------------------------------


def test_linearize_quadratic_table(lat2, jmax, rand_fct):
    # Q = u u_xxx alone: d3 = h, d0 = h_xxx
    Q = QuadraticForm(lat2, jmax, {(0, 3): AnalyticFunction.constant(lat2, jmax, 1.0)})
    h = rand_fct(10, amp=0.1)
    qp = linearize_quadratic(Q, h)
    assert (qp.d3 - h).norm(0.0) == 0.0
    assert (qp.d0 - dx(h, 3)).norm(0.0) == 0.0
    assert qp.d2.norm(0.0) == 0.0 and qp.d1.norm(0.0) == 0.0


def test_linearize_directional_derivative(lat2, jmax, rand_fct):
    Q = quadratic_fixture(lat2, jmax)
    h = rand_fct(11, amp=0.05, span=1)
    v = rand_fct(12, amp=0.05, span=1)
    qp = linearize_quadratic(Q, h)
    direct = (
        multiply(qp.d3, dx(v, 3)) + multiply(qp.d2, dx(v, 2))
        + multiply(qp.d1, dx(v, 1)) + multiply(qp.d0, v)
    )
    errs = []
    for eps in (1e-4, 5e-5):
        fd = (evaluate_quadratic(Q, h + eps * v) - evaluate_quadratic(Q, h)) * (1.0 / eps)
        errs.append((fd - direct).norm(0.0))
    # quadratic form: the finite-difference error is exactly eps * Q(v)
    assert errs[1] == pytest.approx(0.5 * errs[0], rel=1e-4)
    assert qp.hamiltonian_defect() < 1e-13


def test_push_quadratic_identity_and_translation(lat2, jmax, omega2, rand_fct):
    Q = quadratic_fixture(lat2, jmax)
    T0 = TransformationData.identity(lat2, jmax, omega2)
    Qp = push_quadratic(Q, T0)
    v = rand_fct(13, amp=0.01, span=1)
    assert (evaluate_quadratic(Qp, v) - evaluate_quadratic(Q, v)).norm(0.0) < 1e-13
    # pure translation: coefficients transported by phase shifts only
    T0.p = AnalyticFunction.from_modes(lat2, jmax, [(E1, 0, 0.01)])
    Qp2 = push_quadratic(Q, T0)
    for key, fct in Q.coeffs.items():
        moved = Qp2.coeffs[key]
        assert (moved - fct).norm(0.0) < 1e-12  # constants are shift-invariant


def test_push_quadratic_matches_direct_transport(lat2, jmax, omega2, rand_fct):
    Q = quadratic_fixture(lat2, jmax)
    res = conjugate_step(generic_operator(lat2, jmax, omega2),
                         generic_perturbation(lat2, jmax), 0.5)
    T = res.transform
    Qp = push_quadratic(Q, T)
    rng = np.random.default_rng(17)
    for _ in range(10):
        modes = []
        for _k in range(4):
            l = MultiIndex((int(rng.integers(-1, 2)), 0))
            j = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
            modes.append((l, j, 0.01 * complex(rng.normal(), rng.normal())))
        v = AnalyticFunction.from_modes(lat2, jmax, modes)
        lhs = evaluate_quadratic(Qp, v)
        rhs = multiply(T.r, apply_transform_inverse(
            T, evaluate_quadratic(Q, apply_transform(T, v))))
        assert (lhs - rhs).norm(0.0) <= 1e-8 * max(rhs.norm(0.0), 1e-300)


def test_moser_power(lat2, jmax):
    f = AnalyticFunction.from_modes(lat2, jmax, [(ZERO, 1, 0.05)]) + 2.0
    g = moser_power(f, -1.0)
    assert (multiply(f, g) - 1.0).norm(0.0) < 1e-12
    with pytest.raises(ValueError):
        moser_power(AnalyticFunction.constant(lat2, jmax, -1.0), 0.5)


def test_homological_identity_residuals_trivial(lat2, jmax, omega2):
    T = TransformationData.identity(lat2, jmax, omega2, lambda3=1.0)
    res = homological_identity_residuals(T, 1.0, zero_fct(lat2, jmax))
    assert all(v < 1e-14 for v in res.values())


def test_symplectic_pairing_against_quadrature(lat2, jmax):
    """Coefficient-space pairing equals tensor-grid quadrature of dx^{-1}u * v."""
    from airykam.analytic import dx_inv as _dx_inv

    rng = np.random.default_rng(23)
    shared = [(ZERO, 1), (E1, 2), (MultiIndex((1, -1)), 3)]
    u = AnalyticFunction.from_modes(
        lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
    )
    v = AnalyticFunction.from_modes(
        lat2, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
    )
    got = symplectic_pairing(u, v)
    n1, n2, nx = 32, 32, 64
    p1 = 2 * np.pi * np.arange(n1) / n1
    p2 = 2 * np.pi * np.arange(n2) / n2
    xs = 2 * np.pi * np.arange(nx) / nx
    P1, P2, X = np.meshgrid(p1, p2, xs, indexing="ij")

    def grid_eval(f):
        out = np.zeros_like(P1, dtype=complex)
        for (l, j), c in f.coeffs.items():
            d = l.dense(2)
            out += c * np.exp(1j * (d[0] * P1 + d[1] * P2 + j * X))
        return out

    quad = np.mean(grid_eval(_dx_inv(pi0_perp(u))) * grid_eval(v))
    assert abs(quad - got) < 1e-12 * max(1.0, abs(got))
