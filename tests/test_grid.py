"""The stacked substitution kernels of _grid against the three-kernel chain.

A change of variables is one grid pass over a stack of fields
(``_grid.substitute``, ``_grid.substitute_inverse``).  The oracle is the
chain of single-field kernels it replaced (``oracles.forward_chain``,
``oracles.inverse_chain``), each of which truncates its output.
"""

import itertools

import numpy as np
import pytest

from airykam import _grid
from airykam.analytic import AnalyticFunction, invert_phi_shift, invert_x_diffeo
from airykam.conjugation import (
    TransformationData,
    apply_transform,
    apply_transform_inverse,
)
from airykam.lattice import MultiIndex

from oracles import eval_pointwise, forward_chain, inverse_chain

ZERO = MultiIndex.zero()
MASKS = list(itertools.product((False, True), repeat=3))     # (alpha, beta, p) held


def mask_id(mask):
    return "".join(name if held else "-" for name, held in zip("abp", mask))


def random_real(lat, jmax, seed, amp, span=1, jspan=3, phi_only=False):
    """A real function with a few modes, |l_1| <= span, |l_2| <= 1 (0 for
    span 1) and |j| <= jspan (j = 0 for a function of phi alone)."""
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(6):
        l = MultiIndex([int(rng.integers(-span, span + 1)),
                        int(rng.integers(-1, 2)) if span > 1 else 0])
        if phi_only and l == ZERO:
            continue
        j = 0 if phi_only else int(rng.integers(-jspan, jspan + 1))
        modes.append((l, j, amp * complex(rng.normal(), rng.normal())))
    return AnalyticFunction.from_modes(lat, jmax, modes)


def fields(lat, jmax, n=3, span=1):
    return [random_real(lat, jmax, seed, 1.0, span=span) for seed in range(1, n + 1)]


def amplitudes(lat, jmax, mask, scale=1.0):
    """alpha (x-modes |j| <= 1), beta and p (phi alone), the unheld ones zero.
    At scale 1 they are small enough that the chain's intermediate
    truncations lose less than rounding."""
    made = (random_real(lat, jmax, 11, 3e-4 * scale, jspan=1),
            random_real(lat, jmax, 12, 2e-4 * scale, phi_only=True),
            random_real(lat, jmax, 13, 2e-4 * scale, phi_only=True))
    zero = AnalyticFunction.zeros(lat, jmax)
    return [a if held else zero for a, held in zip(made, mask)]


def transform(lat, jmax, omega, alpha, beta, p):
    """A TransformationData carrying the amplitudes and their inverses."""
    alpha_tilde = invert_x_diffeo(alpha)
    beta_tilde = invert_phi_shift(beta, omega)
    one = AnalyticFunction.constant(lat, jmax, 1.0)
    return TransformationData(np.asarray(omega, float), alpha, alpha_tilde, beta, beta_tilde,
                              p, one, one, 1.0, 0.0)


def rel(a, b):
    return (a - b).norm(0.0) / b.norm(0.0)


@pytest.mark.parametrize("mask", MASKS, ids=mask_id)
def test_inverse_pass_matches_the_chain(lat2, jmax, omega2, mask):
    alpha, beta, p = amplitudes(lat2, jmax, mask)
    T = transform(lat2, jmax, omega2, alpha, beta, p)
    us = fields(lat2, jmax)
    stacked = _grid.substitute_inverse(us, T.alpha_tilde, T.beta_tilde, T.p, omega2)
    for u, got in zip(us, stacked):
        want = inverse_chain(u, T.alpha_tilde, T.beta_tilde, T.p, omega2)
        assert rel(got, want) <= 1e-13
        with_jacobian = inverse_chain(u, T.alpha_tilde, T.beta_tilde, T.p, omega2, jacobian=True)
        assert rel(apply_transform_inverse(T, u), with_jacobian) <= 1e-13
    if not any(mask):
        assert all(got is u for u, got in zip(us, stacked))


@pytest.mark.parametrize("mask", MASKS, ids=mask_id)
def test_forward_pass_matches_the_chain(lat2, jmax, omega2, mask):
    alpha, beta, p = amplitudes(lat2, jmax, mask)
    T = transform(lat2, jmax, omega2, alpha, beta, p)
    us = fields(lat2, jmax)
    stacked = _grid.substitute(us, alpha, beta, p, omega2)
    for u, got in zip(us, stacked):
        assert rel(got, forward_chain(u, alpha, beta, p, omega2)) <= 1e-13
        with_jacobian = forward_chain(u, alpha, beta, p, omega2, jacobian=True)
        assert rel(apply_transform(T, u), with_jacobian) <= 1e-13


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_one_pass_against_pointwise_evaluation(lat2, jmax, omega2, sample_points, direction):
    """The maps themselves, evaluated at sample points without any grid."""
    alpha, beta, p = amplitudes(lat2, jmax, (True, True, True))
    us = fields(lat2, jmax)
    phis, xs = sample_points

    def at(f, ph, x):
        return eval_pointwise(f, ph, x).real

    if direction == "forward":
        Phi = phis + at(beta, phis, xs)[:, None] * omega2
        X = xs + at(alpha, phis, xs) + at(p, Phi, xs)
        got = _grid.substitute(us, alpha, beta, p, omega2)
    else:
        Phi = phis + at(beta, phis, xs)[:, None] * omega2
        y = xs - at(p, phis, xs)
        X = y + at(alpha, Phi, y)
        got = _grid.substitute_inverse(us, alpha, beta, p, omega2)
    for u, g in zip(us, got):
        want = eval_pointwise(u, Phi, X)
        assert np.max(np.abs(eval_pointwise(g, phis, xs) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("mask", MASKS[1:], ids=mask_id)
def test_one_pass_is_at_least_as_accurate_as_the_chain(lat2, jmax, omega2, direction, mask):
    """Against the one pass on the factor-4 grid, at amplitudes where the
    chain's intermediate truncations to the lattice lose accuracy."""
    alpha, beta, p = amplitudes(lat2, jmax, mask, scale=10.0)
    us = fields(lat2, jmax, span=2)
    kernel, chain = ((_grid.substitute, forward_chain) if direction == "forward"
                     else (_grid.substitute_inverse, inverse_chain))
    ref = kernel(us, alpha, beta, p, omega2, factor=4)
    got = kernel(us, alpha, beta, p, omega2)
    for u, g, r in zip(us, got, ref):
        assert rel(g, r) <= rel(chain(u, alpha, beta, p, omega2), r)
        assert rel(g, r) <= 1e-14


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_a_stack_equals_one_field_calls_bitwise(lat2, jmax, omega2, direction):
    alpha, beta, p = amplitudes(lat2, jmax, (True, True, True))
    us = fields(lat2, jmax, n=6)
    kernel = _grid.substitute if direction == "forward" else _grid.substitute_inverse
    report = {}
    stacked = kernel(us, alpha, beta, p, omega2, report=report)
    singles, singles_rep = [], {}
    for u in us:
        singles += kernel([u], alpha, beta, p, omega2, report=singles_rep)
    for got, want in zip(stacked, singles):
        assert np.array_equal(got.data, want.data)
    assert report == singles_rep
    assert set(report) == {"max_alias_rel", "max_discard_rel"}
    assert 0.0 < report["max_alias_rel"] < 1e-7


@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_non_real_field_anywhere_in_the_stack_raises(lat2, jmax, omega2, where):
    alpha, beta, p = amplitudes(lat2, jmax, (True, True, True))
    us = fields(lat2, jmax, n=5)
    us[where] = AnalyticFunction(lat2, jmax, {(ZERO, 1): 1.0 + 0j}, real=False)
    for kernel in (_grid.substitute, _grid.substitute_inverse):
        with pytest.raises(ValueError, match="real"):
            kernel(us, alpha, beta, p, omega2)
        with pytest.raises(ValueError, match="real"):       # also when nothing moves
            kernel(us, None, None, None, omega2)


def test_amplitudes_are_checked(lat2, jmax, omega2):
    alpha, beta, p = amplitudes(lat2, jmax, (True, True, True))
    us = fields(lat2, jmax)
    for kernel in (_grid.substitute, _grid.substitute_inverse):
        with pytest.raises(ValueError, match="phi only"):
            kernel(us, None, alpha, None, omega2)
        with pytest.raises(ValueError, match="phi only"):
            kernel(us, None, None, alpha, omega2)
        with pytest.raises(ValueError, match="real"):
            kernel(us, AnalyticFunction(lat2, jmax, {(ZERO, 1): 1e-3 + 0j}, real=False),
                   None, None, omega2)


def test_an_empty_stack_returns_an_empty_list(lat2, jmax, omega2):
    alpha, beta, p = amplitudes(lat2, jmax, (True, True, True))
    for kernel in (_grid.substitute, _grid.substitute_inverse):
        assert kernel([], alpha, beta, p, omega2) == []
        assert kernel([], None, None, None, omega2) == []
