"""Fast invariant suites behind the ``selftest`` CLI command.

Each check prints one PASS/FAIL line; the runner returns False as soon as the
full sweep contains a failure.  Tolerances mirror the property tests.
"""

from __future__ import annotations

import numpy as np

from ._accel import convolve_into
from ._grid import compose_x_diffeo, moser_compose
from .analytic import (
    AnalyticFunction,
    ScalarSeries,
    _product_grid,
    dumps,
    dx,
    dx_inv,
    loads,
    multiply,
    pi0,
    pi0_perp,
    project_N,
    project_N_perp,
)
from .conjugation import symplectic_pairing
from .homological import solve_airy
from .lattice import LatticeParams, MultiIndex, enumerate_indices, eta_norm, get_enumeration
from .opalg import (
    commutator,
    dx_op,
    exp_apply,
    mult_op,
    op_norm,
    restrict,
    smoothing_generator_op,
)
from .smalldiv import is_diophantine, measure_estimate


def _random_fct(lat, jmax, rng, n_modes=6, amp=1.0, span=None):
    span = span or max(1, int(lat.K // 2))
    modes = []
    for _ in range(n_modes):
        entries = [int(rng.integers(-span, span + 1)) for _ in range(lat.M)]
        l = MultiIndex(entries)
        if eta_norm(l, lat.eta) > lat.K:
            l = MultiIndex.zero()
        j = int(rng.integers(1, max(2, jmax // 2))) * (1 if rng.random() < 0.5 else -1)
        modes.append((l, j, amp * complex(rng.normal(), rng.normal())))
    return AnalyticFunction.from_modes(lat, jmax, modes)


def run_selftest(verbose: bool = False) -> bool:
    lat = LatticeParams(1.0, 2, 6.0)
    jmax = 10
    rng = np.random.default_rng(20240817)
    checks = []

    def check(name, ok):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    # lattice basics
    idx = enumerate_indices(lat)
    check("enumeration contains 0 and is negation-closed",
          MultiIndex.zero() in idx and all(-l in idx for l in idx))

    u = _random_fct(lat, jmax, rng)
    v = _random_fct(lat, jmax, rng)
    big = LatticeParams(1.0, 2, 24.0)
    ub = AnalyticFunction(big, 4 * jmax, {k: c for k, c in u.coeffs.items()})
    vb = AnalyticFunction(big, 4 * jmax, {k: c for k, c in v.coeffs.items()})
    check("norm algebra |uv| <= |u||v| (pre-truncation)",
          multiply(ub, vb).norm(0.3) <= ub.norm(0.3) * vb.norm(0.3) * (1 + 1e-12))
    shape = (len(idx), 2 * jmax + 1)
    draw = np.random.default_rng(7).normal
    dense = [AnalyticFunction.from_array(lat, jmax, draw(size=shape) + 1j * draw(size=shape))
             for _ in range(2)]
    on_grid = multiply(*dense)
    lists = [(ia, ja - jmax, f.data[ia, ja]) for f in dense for ia, ja in [np.nonzero(f.data)]]
    direct = np.zeros(shape, dtype=complex)
    convolve_into(*lists[0], *lists[1], get_enumeration(lat).conv_table(), jmax, direct)
    check("dense real product on the grid matches convolve_into (1e-14 relative)",
          _product_grid(*dense) is not None
          and np.max(np.abs(on_grid.data - direct)) <= 1e-14 * np.max(np.abs(direct)))
    check("projector complements sum to the identity",
          (pi0(u) + pi0_perp(u) - u).norm(0.0) == 0.0
          and (project_N(u, 3.0) + project_N_perp(u, 3.0) - u).norm(0.0) == 0.0)
    w = pi0_perp(u)
    check("derivative and antiderivative invert", (dx(dx_inv(w)) - w).norm(0.0) < 1e-13)

    check("serialization round-trips losslessly", loads(dumps(u)).coeffs == u.coeffs)

    const = AnalyticFunction.constant(lat, jmax, 0.3)
    mode = AnalyticFunction.from_modes(lat, jmax, [(MultiIndex.unit(1), 2, 1.0 - 0.5j)])
    phase = np.exp(0.3j * np.arange(-jmax, jmax + 1))
    check("x-diffeomorphism by a constant c multiplies mode j by e^{ijc}",
          all(np.max(np.abs(compose_x_diffeo(f, const).data - phase * f.data)) <= 1e-13
              for f in (u, mode)))

    e1 = MultiIndex.unit(1)
    cos_phi = AnalyticFunction.from_modes(lat, jmax, [(e1, 0, 0.05)])
    square = moser_compose(ScalarSeries(lambda z: (1.0 + z) ** 2, 0.9), cos_phi)
    expect = AnalyticFunction.from_modes(
        lat, jmax, [(MultiIndex.zero(), 0, 1.005), (e1, 0, 0.1), (MultiIndex.unit(1, 2), 0, 0.0025)])
    check("series of a function of phi on a one-point x axis: "
          "(1 + 0.1 cos phi_1)^2 = 1.005 + 0.2 cos phi_1 + 0.005 cos 2 phi_1",
          np.max(np.abs(square.data - expect.data)) <= 1e-13)

    om = np.array([1.2357, 1.7113])
    f = pi0_perp(_random_fct(lat, jmax, rng, amp=0.1))
    h = solve_airy(f, om, 0.2)
    from .analytic import om_dphi
    resid = (om_dphi(h, om) + dx(h, 3) + f).norm(0.0)
    check("constant-coefficient homological residual <= 1e-12 |f|",
          resid <= 1e-12 * f.norm(0.0))

    g = dx_inv(pi0_perp(_random_fct(lat, jmax, rng, amp=0.05)))
    G = smoothing_generator_op(g)
    uu = pi0_perp(_random_fct(lat, jmax, rng))
    back = exp_apply(-G, exp_apply(G, uu))
    check("exponential flow inverts", (back - uu).norm(0.0) <= 1e-10 * uu.norm(0.0))

    pair0 = symplectic_pairing(uu, exp_apply(G, uu))
    pair1 = symplectic_pairing(exp_apply(G, uu), exp_apply(G, exp_apply(G, uu)))
    check("smoothing generators preserve the symplectic pairing",
          abs(pair1 - pair0) <= 1e-8 * max(1.0, abs(pair0)))

    cosx = AnalyticFunction.from_modes(lat, jmax, [(MultiIndex.zero(), 1, 0.5)])
    lhs = commutator(dx_op(lat, jmax), mult_op(cosx))
    check("[dx, mult(cos x)] = mult(-sin x) on the interior",
          op_norm(restrict(lhs - mult_op(dx(cosx)), jmax - 1, lat.K), 0.0) < 1e-13)

    est1 = measure_estimate(lambda w_: True, 200, seed=1, M=2)
    est2 = measure_estimate(lambda w_: is_diophantine(w_, 0.25, lat).ok, 200, seed=5, M=2)
    est3 = measure_estimate(lambda w_: is_diophantine(w_, 0.25, lat).ok, 200, seed=5, M=2)
    check("measure estimation is deterministic and normalized",
          est1.fraction == 1.0 and est2.fraction == est3.fraction)

    ok = all(checks)
    print(f"{sum(checks)}/{len(checks)} selftest checks passed")
    return ok
