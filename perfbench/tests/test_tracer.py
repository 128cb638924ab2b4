"""Tests of the outside-in tracer: self-time arithmetic, aliases, counts."""

import importlib
import itertools

import numpy as np
import pytest

import tracer
from tracer import TARGETS, Tracer, package_modules, self_times


def span(name, start, end, parent):
    return [name, start, end, parent, "r", True]


def test_self_time_subtracts_children_union():
    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 3.5, 6.0, 0),      # overlaps a: the union counts once
        span("c", 8.0, 12.0, 0),     # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - (5.0 + 2.0), 2.0, 1.0, 2.5, 4.0])


def test_summary_from_nested_and_recursive_spans():
    ticks = itertools.count()
    tr = Tracer()
    tr._clock = lambda: float(next(ticks))
    tr.begin("m.outer")        # t=0
    tr.begin("m.outer")        # t=1, recursive call
    tr.begin("k.leaf")         # t=2
    tr.end()                   # t=3
    tr.end()                   # t=4
    tr.end()                   # t=5
    s = tr.summary()
    assert s["m.outer.calls"] == 2
    assert s["m.outer.total_s"] == 5.0          # outermost span only
    assert s["m.outer.self_s"] == (5 - 3) + (3 - 1)
    assert s["k.leaf.self_s"] == 1.0
    assert s["m.self_s"] == 4.0 and s["k.self_s"] == 1.0


def _aliases():
    """(module, attribute) pairs referencing each target function."""
    out = {}
    for mod_name, funcs in TARGETS.items():
        mod = importlib.import_module(f"airykam.{mod_name}")
        for func in funcs:
            original = getattr(mod, func)
            out[(mod_name, func)] = (original, [
                (m, attr) for m in package_modules() for attr, v in vars(m).items()
                if v is original
            ])
    return out


def test_every_alias_is_wrapped_then_restored():
    importlib.import_module("airykam.cli")
    before = _aliases()
    # The shared objects the tracer must catch in more than one namespace.
    import airykam.nashmoser as nm
    import airykam.reducibility as red
    assert nm.reduce_operator is red.reduce_operator

    tr = Tracer()
    tr.install()
    try:
        for (mod_name, func), (original, refs) in before.items():
            assert refs, f"{mod_name}.{func} has no reference"
            wrappers = {getattr(m, attr) for m, attr in refs}
            assert len(wrappers) == 1, f"{mod_name}.{func} wrapped inconsistently"
            (w,) = wrappers
            assert w is not original and w.__wrapped_by_tracer__ is original
        assert nm.reduce_operator is red.reduce_operator
        assert nm.reduce_operator is not before[("reducibility", "reduce_operator")][0]
    finally:
        tr.uninstall()
    for (original, refs) in before.values():
        for m, attr in refs:
            assert getattr(m, attr) is original


def test_traced_compose_counts_match_brute_force():
    from airykam.lattice import LatticeParams, get_enumeration
    from airykam import opalg

    lat = LatticeParams(eta=1.0, M=2, K=3.0)
    jmax = 2
    nj = 2 * jmax + 1
    enum = get_enumeration(lat)
    rng = np.random.default_rng(0)
    blocks_a = {l: rng.normal(size=(nj, nj)) for l in enum.indices[:7]}
    blocks_b = {l: rng.normal(size=(nj, nj)) for l in enum.indices[3:12]}
    A = opalg.OperatorMatrix(lat, jmax, blocks_a, real=False)
    B = opalg.OperatorMatrix(lat, jmax, blocks_b, real=False)

    tr = Tracer()
    tr.install()
    try:
        opalg.compose(A, B)
    finally:
        tr.uninstall()
    in_lattice = sum(1 for la in A.blocks for lb in B.blocks if (la + lb) in enum.index_of)
    s = tr.summary()
    assert s["opalg.compose.calls"] == 1
    assert s["opalg.compose.block_pairs"] == len(A.blocks) * len(B.blocks)
    assert s["opalg.compose.block_products"] == in_lattice
    assert s["opalg.compose.gflops"] == pytest.approx(8 * nj**3 * in_lattice / 1e9)
    # Counting happens after the span ends and is charged to trace.count.
    assert s["trace.count.calls"] == 1


def test_stalled_steps_counted_from_residuals():
    from types import SimpleNamespace

    from airykam import _grid
    from airykam.lattice import LatticeParams

    spec = SimpleNamespace(lattice=LatticeParams(eta=1.0, M=2, K=8.0), jmax=16, oversample=4)
    tr = Tracer()
    # The solve_m3 residual sequence: only the last step falls by less than 1%.
    for v in (1.39e-6, 1.31e-10, 1.2561e-10, 1.2561e-10):
        tracer._count_step(tr, {}, None)
        tracer._count_residual(tr, {"spec": spec, "oversample": None},
                               SimpleNamespace(l1_coeff=v))
    assert tr.counts["nashmoser.outer_steps"] == 4
    assert tr.counts["nashmoser.stalled_steps"] == 1
    points = np.prod(_grid.grid_sizes(spec.lattice, spec.jmax, 4))
    assert tr.counts["nashmoser.residual.grid_points"] == 4 * points
