"""Flat key = value run configuration.

Lines hold ``dotted.key = value`` with ``#`` comments; values are parsed as
JSON where possible and kept as strings otherwise.  A value holding NaN or
an infinity (``NaN``, ``Infinity``, an overflowing ``1e999``) is rejected.
Forcing and coefficient functions are written as lists of entries
``[[[site, l_site], ...], j, re, im]``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .analytic import AnalyticFunction
from .lattice import LatticeParams, MultiIndex
from .nashmoser import ProblemSpec
from .smalldiv import is_airy_nonresonant, is_diophantine


class ConfigError(ValueError):
    """Missing or malformed configuration input."""


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
        if not _all_finite(out[key]):
            raise ConfigError(f"line {lineno}: {key} holds a non-finite number")
    return out


def _all_finite(value) -> bool:
    """False if value holds NaN or an infinity, also one spelled as a string."""
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return True
    return not isinstance(value, float) or math.isfinite(value)


def load_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())


def require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key: {key}")
    return cfg[key]


def get(cfg: dict, key: str, default):
    return cfg.get(key, default)


def lattice_from(cfg: dict) -> LatticeParams:
    eta = require(cfg, "problem.eta")
    M = require(cfg, "truncation.M")
    K = require(cfg, "truncation.K")
    try:
        # M unconverted: LatticeParams rejects a fractional M that int() would truncate
        return LatticeParams(eta=float(eta), M=M, K=float(K))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice (problem.eta, truncation.M, truncation.K): {exc}") from None


def function_from_entries(entries, lattice, jmax, real=True) -> AnalyticFunction:
    coeffs = {}
    for item in entries:
        try:
            pairs, j, re, im = item
            l = MultiIndex.from_pairs([(int(s), int(v)) for s, v in pairs])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad function entry {item!r}: {exc}") from None
        coeffs[(l, int(j))] = coeffs.get((l, int(j)), 0.0) + complex(float(re), float(im))
        if real:
            key = (-l, -int(j))
            coeffs[key] = coeffs.get(key, 0.0) + complex(float(re), -float(im))
    return AnalyticFunction(lattice, jmax, coeffs, real=real)


def omega_from(cfg: dict, lattice, jmax, seed_override=None):
    """Either explicit omega.values or seeded rejection sampling over the
    admissible set (Diophantine at gbar, cubic non-resonance at gamma0)."""
    if "omega.values" in cfg and not cfg.get("omega.sample", False):
        vals = np.asarray(require(cfg, "omega.values"), dtype=float)
        if vals.shape != (lattice.M,):
            raise ConfigError(f"omega.values must have length M={lattice.M}")
        return vals
    if not cfg.get("omega.sample", False):
        raise ConfigError("provide omega.values or set omega.sample = true")
    seed = int(get(cfg, "omega.seed", 0)) if seed_override is None else int(seed_override)
    gbar = float(require(cfg, "problem.gbar"))
    gamma0 = float(require(cfg, "problem.gamma0"))
    rng = np.random.default_rng(seed)
    for _ in range(int(get(cfg, "omega.max_tries", 1000))):
        cand = rng.uniform(1.0, 2.0, lattice.M)
        if is_diophantine(cand, gbar, lattice).ok and \
                is_airy_nonresonant(cand, gamma0, lattice, jmax).ok:
            return cand
    raise ConfigError("omega sampling failed to find an admissible frequency")


def problem_spec_from(cfg: dict, seed_override=None) -> ProblemSpec:
    lattice = lattice_from(cfg)
    jmax = int(require(cfg, "truncation.jmax"))
    forcing = function_from_entries(require(cfg, "forcing.entries"), lattice, jmax)
    omega = omega_from(cfg, lattice, jmax, seed_override=seed_override)
    return ProblemSpec(
        c=(
            float(get(cfg, "problem.c0", 0.0)),
            float(get(cfg, "problem.c1", 0.0)),
            float(get(cfg, "problem.c2", 0.0)),
            float(get(cfg, "problem.c3", 0.0)),
        ),
        forcing=forcing,
        S=float(require(cfg, "problem.S")),
        s_bar=float(require(cfg, "problem.s_bar")),
        gbar=float(require(cfg, "problem.gbar")),
        gamma0=float(require(cfg, "problem.gamma0")),
        omega=omega,
        oversample=int(get(cfg, "truncation.oversample", 4)),
        N0=float(get(cfg, "schedule.N0", 8.0)),
        kam_stop_tol=float(get(cfg, "schedule.kam_stop_tol", 1e-13)),
        kam_max_steps=int(get(cfg, "schedule.kam_max_steps", 40)),
        residual_target=float(get(cfg, "schedule.residual_target", 1e-10)),
    )
