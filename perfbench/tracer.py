"""Outside-in span tracer for airykam.

The tracer wraps public functions of the airykam modules from outside: each
target function is replaced in every ``airykam`` module namespace that holds
a reference to it (``nashmoser.reduce_operator`` and
``reducibility.reduce_operator`` are the same object), and the originals are
put back by ``uninstall``.  No file of the package changes.

Each call becomes a span ``[name, start, end, parent, run, outermost]`` kept
in memory.  Self time is a span's duration minus the part of it covered by
its child spans.  Work counts (grid points, block products, series terms,
stalled outer steps) are computed from call arguments and results after the
span has ended; the time spent computing them is recorded as a
``trace.count`` span, so it is charged to no layer.  Counts are computed, not
measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped.  Spans and metrics are named
# "<module>.<function>" with the module's leading underscore dropped
# (_grid -> grid, _accel -> accel): metric names start with a letter.
TARGETS = {
    "cli": ("main",),
    "config": ("load_config", "problem_spec_from", "omega_from", "function_from_entries"),
    "lattice": ("get_enumeration",),
    "analytic": ("multiply",),
    "_accel": ("convolve_into",),
    "opalg": ("compose", "apply_op", "lie_series", "exp_conjugate", "exp_apply"),
    "smalldiv": ("is_diophantine", "is_airy_nonresonant", "first_melnikov",
                 "second_melnikov", "measure_estimate"),
    "homological": ("solve_diagonal",),
    "reducibility": ("reduce_operator", "order_one_reduction", "kam_step",
                     "invert_via_diagonalization"),
    "conjugation": ("conjugate_step", "push_quadratic", "evaluate_quadratic",
                    "apply_transform_inverse"),
    "_grid": ("compose_x_diffeo", "compose_phi_shift", "compose_x_translation",
              "invert_x_diffeo", "invert_phi_shift", "moser_compose"),
    "nashmoser": ("solve", "step", "residual", "assemble_solution"),
}

STALL_RATIO = 0.99   # an outer step whose residual l1_coeff falls by < 1% is stalled
COUNT_SPAN = "trace.count"


def package_modules(package="airykam"):
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def self_times(spans):
    """Self time of each span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self, run=""):
        self.run = run
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._open = defaultdict(int)
        self._patched = []
        self._prev_l1 = None
        self._clock = time.perf_counter

    # -- recording ------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._clock(), None, parent, self.run,
                           self._open[name] == 0])
        self._open[name] += 1
        self._stack.append(len(self.spans) - 1)

    def end(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = self._clock()
        self._open[span[0]] -= 1

    def wrap(self, name, fn, counter=None):
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                self.begin(COUNT_SPAN)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self, bound.arguments, result)
                finally:
                    self.end()
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    # -- installing -----------------------------------------------------------

    def install(self, package="airykam"):
        """Replace every reference to each target in the package's namespaces."""
        for mod_name, funcs in TARGETS.items():
            mod = importlib.import_module(f"{package}.{mod_name}")
            for func in funcs:
                original = getattr(mod, func)
                name = f"{mod_name.lstrip('_')}.{func}"
                wrapper = self.wrap(name, original, COUNTERS.get(name))
                for m in package_modules(package):
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per function calls/self_s/total_s, per module self_s, and the counts."""
        if self._stack:
            raise RuntimeError("summary() with spans still open")
        out = defaultdict(float)
        selfs = self_times(self.spans)
        for (name, start, end, _parent, _run, outermost), own in zip(self.spans, selfs):
            module = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{module}.self_s"] += own
            if outermost:
                out[f"{name}.total_s"] += end - start
        out.update(self.counts)
        return dict(out)

    def dump(self, path):
        """Write every span and the computed counts as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
            fh.write(json.dumps({"computed": dict(self.counts)}) + "\n")


# -- computed work counts -------------------------------------------------------


def _grid_points(sizes):
    return float(math.prod(sizes))


def _count_compose(tr, a, result):
    A, B = a["A"], a["B"]
    pairs = len(A.blocks) * len(B.blocks)
    products = 0
    if pairs:
        lat = A.lattice
        weights = np.arange(1, lat.M + 1, dtype=float) ** lat.eta
        da = np.array([l.dense(lat.M) for l in A.blocks])
        db = np.array([l.dense(lat.M) for l in B.blocks])
        # A product is kept when l_a + l_b is in the lattice: |l_a + l_b|_eta <= K.
        norms = np.abs(da[:, None, :] + db[None, :, :]) @ weights
        products = int(np.count_nonzero(norms <= lat.K + 1e-9))
    tr.counts["opalg.compose.block_pairs"] += pairs
    tr.counts["opalg.compose.block_products"] += products
    tr.counts["opalg.compose.gflops"] += 8.0 * A.nj ** 3 * products / 1e9


def _count_multiply(tr, a, result):
    tr.counts["analytic.multiply.coeff_pairs"] += len(a["u"].coeffs) * len(a["v"].coeffs)


def _count_lie_series(tr, a, result):
    tr.counts["opalg.lie_series.terms"] += result[1]


def _grid_counter(arg, phi_only=lambda u: False):
    def count(tr, a, result):
        from airykam import _grid

        u = a[arg]
        if phi_only(u):
            sizes = _grid.phi_sizes(u.lattice, a["factor"])
        else:
            sizes = _grid.grid_sizes(u.lattice, u.jmax, a["factor"])
        tr.counts["grid.grid_points"] += _grid_points(sizes)
    return count


def _count_residual(tr, a, result):
    from airykam import _grid

    spec = a["spec"]
    factor = spec.oversample if a["oversample"] is None else int(a["oversample"])
    tr.counts["nashmoser.residual.grid_points"] += _grid_points(
        _grid.grid_sizes(spec.lattice, spec.jmax, factor))
    l1 = result.l1_coeff
    if tr._prev_l1 is not None and l1 > STALL_RATIO * tr._prev_l1:
        tr.counts["nashmoser.stalled_steps"] += 1
    tr._prev_l1 = l1


def _count_step(tr, a, result):
    tr.counts["nashmoser.outer_steps"] += 1


def _forget_residual(tr, a, result):
    # Stalls are counted within one solve.
    tr._prev_l1 = None


COUNTERS = {
    "opalg.compose": _count_compose,
    "analytic.multiply": _count_multiply,
    "opalg.lie_series": _count_lie_series,
    "grid.compose_x_diffeo": _grid_counter("u"),
    "grid.compose_phi_shift": _grid_counter("u"),
    "grid.compose_x_translation": _grid_counter("u"),
    "grid.invert_x_diffeo": _grid_counter("alpha"),
    "grid.invert_phi_shift": _grid_counter("beta", phi_only=lambda u: True),
    "grid.moser_compose": _grid_counter("u", phi_only=lambda u: u.phi_only),
    "nashmoser.residual": _count_residual,
    "nashmoser.step": _count_step,
    "nashmoser.solve": _forget_residual,
}

