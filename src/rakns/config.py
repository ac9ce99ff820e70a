"""Line-based run configuration: `[section]` headers, `key = value` pairs,
one typed parser per key, fail-closed validation with line numbers; and
the named presets."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .evolve import Bump, FlowSpec, Linear, Poly, Sinusoid


class ConfigError(Exception):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(ConfigError):
    pass


class UnknownKey(ConfigError):
    pass


class BadScheduleLiteral(ConfigError):
    pass


@dataclass(frozen=True)
class Config:
    sections: dict  # section -> {key: value}

    def flow_spec(self) -> FlowSpec:
        flows = self.sections.get("flows", {})
        if not flows:
            raise ConfigError("config has no [flows] entries")
        return FlowSpec((int(key[4:]), sched) for key, sched in sorted(flows.items()))


_LITERAL_RE = re.compile(r"([a-z][a-z0-9]*)(?:\(\s*([^()]*?)\s*\))?")


def _literal(text: str):
    """``name`` or ``name(a, b, ...)`` as (name, [a, b, ...])."""
    m = _LITERAL_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"expected name or name(args), got {text!r}")
    args = m.group(2)
    return m.group(1), [a.strip() for a in args.split(",")] if args else []


_SCHEDULES = {"linear": Linear, "poly": lambda *c: Poly(c), "sin": Sinusoid, "bump": Bump}


def _schedule(text: str):
    """linear(slope[, offset]), poly(c0, c1, ...), sin(amplitude,
    frequency[, phase]) or bump(t0, t1, height); the schedule refuses
    non-finite parameters."""
    name, args = _literal(text)
    if name not in _SCHEDULES:
        raise ValueError(f"unknown schedule {name!r}")
    try:
        return _SCHEDULES[name](*(float(a) for a in args))
    except TypeError:
        raise ValueError(f"wrong number of arguments in {text!r}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _bounded(parse, ok, need: str):
    """``parse``, refusing a value that is not ``ok`` as not ``need``."""

    def parser(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {need}, got {text!r}")
        return value

    return parser


def _method(text: str) -> str:
    if text not in ("auto", "rk4", "ifrk4"):
        raise ValueError(f"expected auto, rk4 or ifrk4, got {text!r}")
    return text


# The only keys a config may hold, each with the one parser for its value.
_KEYS = {
    **{("flows", f"flow{k}"): _schedule for k in range(1, 10)},
    ("grid", "n"): _bounded(int, lambda v: v >= 16 and not v & (v - 1), "a power of two >= 16"),
    ("grid", "length"): _bounded(_finite, lambda v: v > 0, "positive"),
    ("time", "dt"): _bounded(_finite, lambda v: v > 0, "positive"),
    ("time", "t_end"): _bounded(_finite, lambda v: v >= 0, "non-negative"),
    ("time", "method"): _method,
    ("time", "snapshot_stride"): _bounded(int, lambda v: v >= 1, "positive"),
}
_SECTIONS = {section for section, _ in _KEYS}


def parse_config(text: str) -> Config:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise UnknownKey(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if current is None:
            raise ParseError("key outside any [section]", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        parse = _KEYS.get((current, key))
        if parse is None:
            raise UnknownKey(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", lineno)
        try:
            sections[current][key] = parse(value)
        except ValueError as exc:
            error = BadScheduleLiteral if current == "flows" else ParseError
            raise error(f"{key}: {exc}", lineno) from None
    return Config(sections)


# -- presets ----------------------------------------------------------------
#
# Coefficient mixes psi_t = sum_k i^k b_k H_k for the named equations.
# Signs are resolved once, here, from the equations' +-i prefixes:
# the named equation i psi_t + a1 H1 - i a2 H2 + a3 H3 - i a4 H4 + a5 H5 = 0
# maps to b = (a1, -a2, -a3, a4, a5).  A preset is a fixed mix, or takes
# that many leading parameters, each 1 by default.

_PARAMS = ("alpha", "beta", "gamma1", "gamma2", "gamma3")
_SIGNS = (1.0, -1.0, -1.0, 1.0, 1.0)
_PRESETS = {
    "nls": (1.0,),
    "mkdv": (0.0, 1.0),
    "lpd": (0.0, 0.0, -1.0),
    "hirota": 2,
    "gnls": 3,
    "hnls4": 4,
    "hnls5": 5,
}


def preset_flow_spec(name: str, params: dict | None = None) -> FlowSpec:
    params = dict(params or {})
    mix = _PRESETS.get(name.lower())
    if mix is None:
        raise ConfigError(f"unknown preset {name!r}")
    if isinstance(mix, int):
        mix = [s * float(params.pop(key, 1.0)) for key, s in zip(_PARAMS[:mix], _SIGNS)]
    if params:
        raise ConfigError(f"unused preset parameters {sorted(params)}")
    return FlowSpec.from_coeffs(mix)


def parse_preset(text: str) -> FlowSpec:
    """``name`` or ``name(v, ..., key=value, ...)``: positional values are
    alpha, beta, gamma1, gamma2, gamma3 in turn."""
    name, args = _literal(text)
    params = {}
    for i, arg in enumerate(args):
        key, eq, value = arg.partition("=")
        if not eq:
            if i >= len(_PARAMS):
                raise ConfigError(f"preset {name!r} takes at most {len(_PARAMS)} positional values")
            key, value = _PARAMS[i], arg
        key = key.strip()
        if key in params:
            raise ConfigError(f"preset parameter {key!r} given twice")
        params[key] = value
    return preset_flow_spec(name, params)
