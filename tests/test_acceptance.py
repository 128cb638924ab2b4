"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE n PASS`` line on success (run with
``pytest -s tests/test_acceptance.py`` to see them inline); timed criteria
assert their wall-clock budgets.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from airykam.analytic import (
    AnalyticFunction,
    dx,
    dx_inv,
    multiply,
    om_dphi,
    pi0_perp,
)
from airykam.cli import main
from airykam.conjugation import (
    QuadraticPerturbation,
    apply_transform,
    apply_transform_inverse,
    conjugate_step,
    symplectic_pairing,
)
from airykam.homological import solve_airy
from airykam.lattice import LatticeParams, MultiIndex, get_enumeration
from airykam.nashmoser import ProblemSpec, solve
from airykam.opalg import (
    DifferentialOperator,
    commutator,
    compose,
    dense_labels,
    dx_op,
    exp_conjugate,
    mult_op,
    op_norm,
    smoothing_generator_op,
)
from airykam.reducibility import (
    KamSchedule,
    compare_reductions,
    invert_via_diagonalization,
    reduce_operator,
)
from airykam.smalldiv import is_diophantine, measure_estimate
from oracles import by_real_parts, dense_operator, dx3_commutator, perturbed_operator

ZERO = MultiIndex.zero()
E1 = MultiIndex.unit(1)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

OMEGA2 = np.array([1.62509547, 1.8972138])   # sampled admissible frequency


def report(n, detail):
    print(f"ACCEPTANCE {n} PASS  {detail}")


def rand_forcing(lat, jmax, seed, n_modes=12):
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(n_modes):
        entries = [int(rng.integers(-2, 3)), int(rng.integers(-1, 2))]
        j = int(rng.integers(1, jmax + 1)) * (1 if rng.random() < 0.5 else -1)
        modes.append((MultiIndex(entries), j, complex(rng.normal(), rng.normal())))
    return pi0_perp(AnalyticFunction.from_modes(lat, jmax, modes))


def test_criterion_1_homological_exactness():
    """100 random solves at M=2, K=6, jmax=16: relative residual <= 1e-12, < 1 s."""
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 16
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        f = rand_forcing(lat, jmax, seed)
        h = solve_airy(f, OMEGA2, 0.2)
        resid = (om_dphi(h, OMEGA2) + dx(h, 3) + f).norm(0.0)
        worst = max(worst, resid / f.norm(0.0))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"worst relative residual {worst:.2e} in {elapsed:.2f} s")


def test_criterion_2_end_to_end_solve():
    """Shipped fixture converges in <= 4 steps to residual <= 1e-10 with
    super-geometric decay, under 60 s."""
    lat = LatticeParams(1.0, 2, 8.0)
    jmax = 16
    forcing = AnalyticFunction.from_modes(lat, jmax, [(E1, 1, 5e-7)])
    t0 = time.monotonic()
    spec = ProblemSpec(c=(1.0, 0.5, 0.25, 1.0), forcing=forcing, S=1.0, s_bar=0.5,
                       gbar=0.5, gamma0=0.2, omega=OMEGA2)
    rep = solve(spec, max_iters=4)
    assert rep.converged and rep.iterations <= 4
    assert max(rep.residuals[-1]["max_grid"], rep.residuals[-1]["l1_coeff"]) <= 1e-10
    # continue past the target to expose the residual decay
    spec_deep = ProblemSpec(c=(1.0, 0.5, 0.25, 1.0), forcing=forcing, S=1.0,
                            s_bar=0.5, gbar=0.5, gamma0=0.2, omega=OMEGA2,
                            residual_target=1e-18)
    deep = solve(spec_deep, max_iters=3)
    series = [max(r["max_grid"], r["l1_coeff"]) for r in deep.residuals]
    elapsed = time.monotonic() - t0
    assert len(series) >= 2
    for a, b in zip(series, series[1:]):
        if a < 1e-4:
            assert b <= a**1.3
    assert elapsed < 60.0
    report(2, f"{rep.iterations} outer steps, residuals {series}, {elapsed:.1f} s")


def _conjugation_case(K, jmax):
    om = np.array([1.37])
    lat = LatticeParams(1.0, 1, K)
    scale = 1e-3
    d3 = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 1, 0.4 * scale), (ZERO, 2, (0.2 - 0.1j) * scale)]
    )
    d1 = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 0, 0.3 * scale), (ZERO, 1, 0.2 * scale)]
    )
    d0 = AnalyticFunction.from_modes(lat, jmax, [(E1, 1, 0.1 * scale)])
    qp = QuadraticPerturbation(d3, 2.0 * dx(d3, 1), d1, d0)
    B = AnalyticFunction.from_modes(lat, jmax, [(E1, 1, 0.5 * scale)]) + 0.03
    C = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, -0.2 * scale)])
    return DifferentialOperator(om, 1.0, B, C), qp


def conjugation_dense_residual(L, qp, result, jwin, lwin):
    """Interior-window norm of r T^{-1}(L + Q')T - L_plus.

    The left side is assembled column by column by applying the transformed
    operator to the basis modes e = e^{i(l.phi + jx)} inside the window,
    through their real parts: W(e) = W(cos) + i W(sin).  The difference is
    measured as the largest window-restricted column l1-norm.  Columns are
    ordered as in dense_operator: lattice index major, then j != 0.
    """
    lat, jmax = L.lattice, L.jmax
    T = result.transform
    dense_plus = dense_operator(result.L_plus)
    jlist = [j for j in range(-jmax, jmax + 1) if j != 0]
    jslots = np.array(jlist) + jmax
    inside = np.outer(get_enumeration(lat).within(lwin),
                      np.abs(np.array(jlist)) <= jwin).ravel()
    l0q_apply = perturbed_operator(L, qp)

    def transformed(u):
        return multiply(T.r, apply_transform_inverse(T, l0q_apply(apply_transform(T, u))))

    worst = 0.0
    for col in np.flatnonzero(inside):
        p, k = divmod(int(col), len(jlist))
        unit = AnalyticFunction.zeros(lat, jmax, real=False)
        unit.data[p, jslots[k]] = 1.0
        lhs = by_real_parts(transformed, unit).data[:, jslots].ravel()
        diff = np.abs(lhs - dense_plus[:, col]) * inside
        worst = max(worst, float(diff.sum()))
    return worst


def test_criterion_3_conjugation_refinement():
    """Interior conjugation residual falls >= 4x when jmax and K double;
    the three transform identities hold to 1e-10."""
    residuals = {}
    for K, jmax in ((3.0, 8), (6.0, 16)):
        L, qp = _conjugation_case(K, jmax)
        res = conjugate_step(L, qp, 0.5)
        for key in ("identity_x_diffeo", "identity_time_reparam",
                    "identity_multiplier"):
            assert res.report[key] <= 1e-10
        residuals[(K, jmax)] = conjugation_dense_residual(L, qp, res, jwin=4, lwin=2.0)
    coarse = residuals[(3.0, 8)]
    fine = residuals[(6.0, 16)]
    assert fine <= coarse / 4.0
    report(3, f"interior residual {coarse:.2e} -> {fine:.2e} under doubling")


def test_criterion_4_symplecticity():
    """apply_transform preserves <dx^{-1} u, v> to relative 1e-10 on 50 pairs."""
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 12
    zero = AnalyticFunction.zeros(lat, jmax)
    L = DifferentialOperator(OMEGA2, 1.0, zero, zero)
    d3 = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, 5e-4)])
    d1 = AnalyticFunction.from_modes(lat, jmax, [(E1, 0, 5e-4)])
    qp = QuadraticPerturbation(d3, 2.0 * dx(d3, 1), d1, zero)
    T = conjugate_step(L, qp, 0.5).transform
    assert T.alpha.norm(0.0) > 0.0 and T.p.norm(0.0) > 0.0
    shared = [(ZERO, 1), (E1, 2), (MultiIndex((1, -1)), 3), (MultiIndex((0, 1)), -2)]
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        u = AnalyticFunction.from_modes(
            lat, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
        )
        v = AnalyticFunction.from_modes(
            lat, jmax, [(l, j, complex(rng.normal(), rng.normal())) for l, j in shared]
        )
        p0 = symplectic_pairing(u, v)
        p1 = symplectic_pairing(apply_transform(T, u), apply_transform(T, v))
        worst = max(worst, abs(p1 - p0) / abs(p0))
    assert worst <= 1e-10
    report(4, f"worst relative pairing drift {worst:.2e} over 50 pairs")


def test_criterion_5_reducibility():
    """KAM reduction of B = lam1 + 1e-3 cos x cos phi_1, C = 1e-3 sin x."""
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 16
    eps = 1e-3
    B = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 1, eps / 4), (E1, -1, eps / 4)]
    ) + 0.05
    C = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, -0.5j * eps)])
    L = DifferentialOperator(OMEGA2, 1.0, B, C)
    sched = KamSchedule(gamma=1e-3, gbar=0.5, N0=8.0, stop_tol=1e-10, max_steps=30)
    t0 = time.monotonic()
    red = reduce_operator(L, sched, verify_window=(jmax - 3, lat.K - 1.0))
    elapsed = time.monotonic() - t0
    assert red.converged
    norms = [row["p_norm"] for row in red.trace]
    norms.append(red.diagnostics["final_p_norm"])
    assert norms[-1] <= 1e-10
    logs = np.log(norms)
    diffs = np.diff(logs)
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert red.diagnostics["offdiag_residual"] <= 1e-9
    vals = red.omega_values()
    assert np.max(np.abs(vals + vals[::-1])) <= 1e-10
    assert elapsed < 30.0
    report(5, f"decay {['%.1e' % v for v in norms]}, "
              f"offdiag {red.diagnostics['offdiag_residual']:.2e}, {elapsed:.1f} s")


def test_criterion_6_oracle_equivalence():
    """Diagonalization-based inversion matches a dense direct solve on a
    30-mode window to relative 1e-8 on 10 random right-hand sides."""
    lat = LatticeParams(1.0, 2, 4.0)
    jmax = 15
    eps = 1e-3
    B = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 1, eps / 4), (E1, -1, eps / 4)]
    ) + 0.05
    C = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, -0.5j * eps)])
    L = DifferentialOperator(OMEGA2, 1.0, B, C)
    sched = KamSchedule(gamma=1e-3, gbar=0.5, N0=8.0, stop_tol=1e-12, max_steps=30)
    red = reduce_operator(L, sched)
    labels, _ = dense_labels(lat, jmax)
    col = {lab: i for i, lab in enumerate(labels)}
    dense = dense_operator(L)
    lu = scipy.linalg.lu_factor(dense)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        modes = []
        for _k in range(5):
            l = MultiIndex((int(rng.integers(-1, 2)), int(rng.integers(-1, 2))))
            j = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
            modes.append((l, j, 1e-4 * complex(rng.normal(), rng.normal())))
        f = AnalyticFunction.from_modes(lat, jmax, modes)
        h = invert_via_diagonalization(red, f, 1e-3)
        fv = np.zeros(len(labels), dtype=complex)
        for (l, j), c in f.coeffs.items():
            fv[col[(l, j)]] = c
        hd = scipy.linalg.lu_solve(lu, -fv)
        hv = np.zeros_like(fv)
        for (l, j), c in h.coeffs.items():
            if j != 0:
                hv[col[(l, j)]] = c
        worst = max(worst, float(np.max(np.abs(hv - hd)) / np.max(np.abs(hd))))
    assert worst <= 1e-8
    report(6, f"worst window deviation {worst:.2e} over 10 right-hand sides")


def test_criterion_7_measure_scaling():
    """Seeded deficits of the Diophantine condition scale linearly in gamma."""
    lat = LatticeParams(1.0, 3, 6.0)
    t0 = time.monotonic()
    deficits = []
    for gamma in (0.5, 0.25, 0.125):
        est = measure_estimate(
            lambda w, g=gamma: is_diophantine(w, g, lat).ok, 1000, seed=42, M=3
        )
        deficits.append(1.0 - est.fraction)
    elapsed = time.monotonic() - t0
    assert deficits[0] > deficits[1] > deficits[2]
    ratios = [deficits[i] / deficits[i + 1] for i in range(2)]
    assert all(1.5 <= r <= 3.0 for r in ratios)
    assert elapsed < 30.0
    report(7, f"deficits {deficits}, ratios {['%.2f' % r for r in ratios]}, "
              f"{elapsed:.1f} s")


def test_criterion_8_appendix_calculus():
    """Commutator closed form, dense conjugation oracle, and the norm-algebra
    and derivative-estimate property sweeps."""
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 10
    # closed form vs brute-force matrix commutator (exact on this basis)
    g = dx_inv(AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, 0.5), (E1, 2, 0.25)]))
    leading, rem = dx3_commutator(g)
    lhs = commutator(dx_op(lat, jmax, 3), smoothing_generator_op(g))
    rhs = compose(mult_op(leading), dx_op(lat, jmax)) + rem
    closed_form = op_norm(lhs - rhs, 0.0)
    assert closed_form <= 1e-12

    # dense conjugation oracle on a 39 x 39 single-block truncation
    lat1 = LatticeParams(1.0, 1, 2.0)
    jb = 19
    rng = np.random.default_rng(5)
    def phi_free(amp):
        modes = [(ZERO, int(rng.integers(-3, 4)), amp * complex(rng.normal(), rng.normal()))
                 for _ in range(4)]
        return mult_op(AnalyticFunction.from_modes(lat1, jb, modes))
    G, Bop = phi_free(0.08), phi_free(1.0)
    got = exp_conjugate(G, Bop, tol=1e-15).blocks[ZERO]
    Gd, Bd = G.blocks[ZERO], Bop.blocks[ZERO]
    oracle = scipy.linalg.expm(-Gd) @ Bd @ scipy.linalg.expm(Gd)
    dense_err = float(np.max(np.abs(got - oracle)))
    assert dense_err <= 1e-10

    # norm algebra on 100 random pairs, pre-truncation
    big = LatticeParams(1.0, 2, 40.0)
    jbig = 24
    rngp = np.random.default_rng(17)
    def rand_big(amp=1.0):
        modes = []
        for _ in range(5):
            l = MultiIndex((int(rngp.integers(-3, 4)), int(rngp.integers(-2, 3))))
            j = int(rngp.integers(-4, 5))
            modes.append((l, j, amp * complex(rngp.normal(), rngp.normal())))
        return AnalyticFunction.from_modes(big, jbig, modes)
    s = 0.35
    for _ in range(100):
        u, v = rand_big(), rand_big()
        assert multiply(u, v, prune_rel=0.0).norm(s) <= u.norm(s) * v.norm(s) * (1 + 1e-12)

    # derivative estimates on 100 random inputs
    for k in range(100):
        u = rand_forcing(lat, jmax, 1000 + k, n_modes=6)
        order = 1 + (k % 3)
        sigma, rho = 0.2, 0.4
        bound = (order / (math.e * rho)) ** order * u.norm(sigma + rho)
        assert dx(u, order).norm(sigma) <= bound * (1 + 1e-12)
    report(8, f"closed form {closed_form:.2e}, dense oracle {dense_err:.2e}, "
              "norm/derivative sweeps 100+100")


def test_criterion_9_frequency_stability():
    """Perturbing the first-order coefficient by delta moves the final
    frequencies by at most C delta with C stable under halving."""
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 12
    eps = 1e-3
    B = AnalyticFunction.from_modes(
        lat, jmax, [(E1, 1, eps / 4), (E1, -1, eps / 4)]
    ) + 0.05
    C = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, -0.5j * eps)])
    sched = KamSchedule(gamma=1e-3, gbar=0.5, N0=8.0, stop_tol=1e-13, max_steps=30)
    base = reduce_operator(DifferentialOperator(OMEGA2, 1.0, B, C), sched)
    consts = {}
    for delta in (1e-5, 5e-6, 1e-6):
        bump = AnalyticFunction.from_modes(lat, jmax, [(ZERO, 1, delta / 2)])
        pert = reduce_operator(
            DifferentialOperator(OMEGA2, 1.0, B + bump, C), sched
        )
        dev = compare_reductions(base, pert)
        consts[delta] = dev["omega_inf_sup"] / delta
    assert consts[5e-6] / consts[1e-5] == pytest.approx(1.0, abs=0.5)
    assert consts[1e-6] / consts[1e-5] == pytest.approx(1.0, abs=0.5)
    report(9, f"stability constants {consts}")


def test_criterion_10_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical reports."""
    pairs = []
    for k in (1, 2):
        out = tmp_path / f"solve{k}"
        assert main(["solve", "--config", str(CONFIGS / "solve_small.cfg"),
                     "--out", str(out)]) == 0
        pairs.append(out)
    a, b = pairs
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "solution.json").read_bytes() == (b / "solution.json").read_bytes()
    # trace rows agree except the wall-clock column
    rows_a = (a / "trace.csv").read_text().splitlines()
    rows_b = (b / "trace.csv").read_text().splitlines()
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        assert ra.split(",")[:-1] == rb.split(",")[:-1]

    for k in (1, 2):
        out = tmp_path / f"measure{k}"
        assert main(["measure", "--config", str(CONFIGS / "measure.cfg"),
                     "--out", str(out)]) == 0
    assert (tmp_path / "measure1" / "report.json").read_bytes() == \
        (tmp_path / "measure2" / "report.json").read_bytes()
    assert (tmp_path / "measure1" / "measure.csv").read_bytes() == \
        (tmp_path / "measure2" / "measure.csv").read_bytes()

    for k in (1, 2):
        out = tmp_path / f"reduce{k}"
        assert main(["reduce", "--config", str(CONFIGS / "reduce_eps.cfg"),
                     "--out", str(out)]) == 0
    assert (tmp_path / "reduce1" / "report.json").read_bytes() == \
        (tmp_path / "reduce2" / "report.json").read_bytes()
    assert (tmp_path / "reduce1" / "omega_table.csv").read_bytes() == \
        (tmp_path / "reduce2" / "omega_table.csv").read_bytes()
    report(10, "solve/measure/reduce reports byte-identical across reruns")
