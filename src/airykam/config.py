"""Flat key = value run configuration.

Lines hold ``dotted.key = value`` with ``#`` comments; values are parsed as
JSON where possible and kept as strings otherwise.  A value holding NaN or
an infinity (``NaN``, ``Infinity``, an overflowing ``1e999``, also a
lowercase ``nan`` or ``inf`` that JSON cannot parse) is rejected.
Numbers are read through ``number``, counts and seeds through ``integer`` and
switches through ``boolean``: a value of the wrong kind is a ConfigError
naming the key.
Forcing and coefficient functions are written as lists of entries
``[[[site, l_site], ...], j, re, im]``; an entry outside the truncation
(site > M, |l|_eta > K or |j| > jmax) is rejected.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .analytic import AnalyticFunction
from .lattice import Enumeration, LatticeParams, MultiIndex, eta_norm, get_enumeration
from .nashmoser import ProblemSpec
from .smalldiv import FrequencyVector, is_airy_nonresonant, is_diophantine


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
    """False if value holds NaN or an infinity, also one spelled as a string.

    A string is checked word by word: it may be a list that JSON could not
    parse because it holds a lowercase ``nan`` or ``inf``."""
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, str):
        return all(_finite_word(w) for w in re.split(r"[\s,\[\]{}:]+", value))
    return not isinstance(value, float) or math.isfinite(value)


def _finite_word(word: str) -> bool:
    try:
        return math.isfinite(float(word))
    except ValueError:
        return True


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


def _number(value, what: str) -> float:
    """value as a float; strings (a number JSON cannot parse, such as 1., is one),
    lists and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """value as an int; integral floats such as 2.0 are accepted, 1.5 is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _between(value: float, what: str, above, below) -> float:
    """value if it is greater than ``above`` and less than ``below`` (each where given)."""
    if above is not None and not value > above:
        raise ConfigError(f"{what} must be > {above:g}, got {value}")
    if below is not None and not value < below:
        raise ConfigError(f"{what} must be < {below:g}, got {value}")
    return value


def number(cfg: dict, key: str, default=None, above=None, below=None) -> float:
    """cfg[key] as a float (strictly between above and below where given),
    required unless a default is given."""
    value = _number(require(cfg, key) if default is None else get(cfg, key, default), key)
    return _between(value, key, above, below)


def integer(cfg: dict, key: str, default=None, minimum=None) -> int:
    """cfg[key] as an int (at least minimum when given), required unless a default is given."""
    value = _integer(require(cfg, key) if default is None else get(cfg, key, default), key)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def boolean(cfg: dict, key: str, default: bool) -> bool:
    """cfg[key] as a bool: only the JSON literals true and false are accepted."""
    value = get(cfg, key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def numbers(cfg: dict, key: str, default=None, above=None, below=None) -> list:
    """cfg[key] as a list of floats (each strictly between above and below where
    given), required unless a default is given."""
    raw = require(cfg, key) if default is None else get(cfg, key, default)
    if not isinstance(raw, list):
        raise ConfigError(f"{key} must be a list of numbers, got {raw!r}")
    return [_between(_number(v, f"{key}[{i}]"), f"{key}[{i}]", above, below)
            for i, v in enumerate(raw)]


def gbar_from(cfg: dict) -> float:
    """problem.gbar, the Diophantine constant, in (0, 1)."""
    return number(cfg, "problem.gbar", above=0.0, below=1.0)


def lattice_from(cfg: dict) -> LatticeParams:
    eta = number(cfg, "problem.eta")
    M = require(cfg, "truncation.M")
    K = number(cfg, "truncation.K")
    try:
        # M unconverted: LatticeParams rejects a fractional M that int() would truncate
        return LatticeParams(eta=eta, M=M, K=K)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice (problem.eta, truncation.M, truncation.K): {exc}") from None


def jmax_from(cfg: dict, default=None) -> int:
    """truncation.jmax as an integer >= 0, required unless a default is given."""
    return integer(cfg, "truncation.jmax", default, minimum=0)


def check_convolution_size(lattice: LatticeParams):
    """Reject a lattice too large for the convolution table of the spectral algebra."""
    size, limit = get_enumeration(lattice).size, Enumeration._CONV_LIMIT
    if size > limit:
        raise ConfigError(f"lattice of {size} indices exceeds the convolution-table limit "
                          f"of {limit}; lower truncation.K or truncation.M")


def _outside_truncation(l, j, lattice, jmax):
    """Why the mode (l, j) lies outside the truncation, or None when it is inside."""
    if l.max_site() > lattice.M:
        return f"site {l.max_site()} > truncation.M = {lattice.M}"
    if l not in get_enumeration(lattice).index_of:
        return f"|l|_eta = {eta_norm(l, lattice.eta):g} > truncation.K = {lattice.K:g}"
    if abs(j) > jmax:
        return f"|j| = {abs(j)} > truncation.jmax = {jmax}"
    return None


def function_from_entries(entries, lattice, jmax, real=True) -> AnalyticFunction:
    """Function from config entries; an entry outside the truncation is a ConfigError."""
    coeffs = {}
    for item in entries:
        try:
            pairs, j, re, im = item
            l = MultiIndex.from_pairs([(_integer(s, "site"), _integer(v, "lattice mode"))
                                       for s, v in pairs])
            j = _integer(j, "x-mode")
            c = complex(_number(re, "real part"), _number(im, "imaginary part"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad function entry {item!r}: {exc}") from None
        outside = _outside_truncation(l, j, lattice, jmax)
        if outside:
            raise ConfigError(f"function entry {item!r} lies outside the truncation: {outside}")
        coeffs[(l, j)] = coeffs.get((l, j), 0.0) + c
        if real:
            key = (-l, -j)
            coeffs[key] = coeffs.get(key, 0.0) + c.conjugate()
    return AnalyticFunction(lattice, jmax, coeffs, real=real)


def omega_from(cfg: dict, lattice, jmax, seed_override=None):
    """Either explicit omega.values (M components in [1, 2]) or, with
    omega.sample = true, seeded rejection sampling over the admissible set
    (Diophantine at gbar, cubic non-resonance at gamma0), never both."""
    sample = boolean(cfg, "omega.sample", False)
    if sample == ("omega.values" in cfg):
        raise ConfigError("set exactly one of omega.values and omega.sample = true")
    if not sample:
        vals = numbers(cfg, "omega.values")
        if len(vals) != lattice.M:
            raise ConfigError(f"omega.values must have length M={lattice.M}, got {len(vals)}")
        try:
            return FrequencyVector(vals).values
        except ValueError as exc:
            raise ConfigError(f"omega.values = {vals}: {exc}") from None
    seed = integer(cfg, "omega.seed", 0) if seed_override is None else int(seed_override)
    gbar = gbar_from(cfg)
    gamma0 = number(cfg, "problem.gamma0", above=0.0)
    rng = np.random.default_rng(seed)
    for _ in range(integer(cfg, "omega.max_tries", 1000, minimum=1)):
        cand = rng.uniform(1.0, 2.0, lattice.M)
        if is_diophantine(cand, gbar, lattice).ok and \
                is_airy_nonresonant(cand, gamma0, lattice, jmax).ok:
            return cand
    raise ConfigError("omega sampling failed to find an admissible frequency")


def problem_spec_from(cfg: dict, seed_override=None) -> ProblemSpec:
    """The problem data; values that ProblemSpec rejects are a ConfigError."""
    lattice = lattice_from(cfg)
    check_convolution_size(lattice)
    jmax = jmax_from(cfg)
    forcing = function_from_entries(require(cfg, "forcing.entries"), lattice, jmax)
    omega = omega_from(cfg, lattice, jmax, seed_override=seed_override)
    fields = dict(
        c=tuple(number(cfg, f"problem.c{k}", 0.0) for k in range(4)),
        forcing=forcing,
        S=number(cfg, "problem.S"),
        s_bar=number(cfg, "problem.s_bar"),
        gbar=gbar_from(cfg),
        gamma0=number(cfg, "problem.gamma0"),
        omega=omega,
        N0=number(cfg, "schedule.N0", 8.0, above=0.0),
        kam_stop_tol=number(cfg, "schedule.kam_stop_tol", 1e-13),
        kam_max_steps=integer(cfg, "schedule.kam_max_steps", 40, minimum=1),
        residual_target=number(cfg, "schedule.residual_target", 1e-10),
    )
    try:
        return ProblemSpec(**fields)
    except ValueError as exc:
        raise ConfigError(f"bad problem data: {exc}") from None
