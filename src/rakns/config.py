"""Line-based run configuration: `[section]` headers, `key = value` pairs,
schedule literals, fail-closed validation with line numbers."""

from __future__ import annotations

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


# Known sections and keys; flowN keys are matched by pattern.
_KNOWN = {
    "flows": re.compile(r"flow[1-9]$"),
    "grid": re.compile(r"(n|length)$"),
    "time": re.compile(r"(dt|t_end|method|snapshot_stride)$"),
}

_SCHEDULE_RE = re.compile(r"(linear|poly|sin|bump)\(([^)]*)\)$")


@dataclass(frozen=True)
class Config:
    sections: dict  # section -> {key: value}

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def flow_spec(self) -> FlowSpec:
        flows = self.sections.get("flows", {})
        entries = []
        for key, sched in sorted(flows.items()):
            if not isinstance(sched, (Linear, Poly, Sinusoid, Bump)):
                raise ConfigError(f"{key} must be a schedule literal")
            entries.append((int(key[4:]), sched))
        if not entries:
            raise ConfigError("config has no [flows] entries")
        return FlowSpec(entries)


def _parse_schedule(kind: str, args_text: str, line: int):
    try:
        args = [float(a) for a in args_text.split(",")] if args_text.strip() else []
    except ValueError:
        raise BadScheduleLiteral(f"non-numeric schedule argument in {args_text!r}", line)
    try:
        if kind == "linear":
            if len(args) == 1:
                args.append(0.0)
            if len(args) != 2:
                raise ValueError
            return Linear(*args)
        if kind == "poly":
            if not args:
                raise ValueError
            return Poly(args)
        if kind == "sin":
            if len(args) == 2:
                args.append(0.0)
            if len(args) != 3:
                raise ValueError
            return Sinusoid(*args)
        if kind == "bump":
            if len(args) != 3:
                raise ValueError
            return Bump(*args)
    except (ValueError, TypeError):
        raise BadScheduleLiteral(f"bad arguments for {kind}(...): {args_text!r}", line)
    raise BadScheduleLiteral(f"unknown schedule {kind!r}", line)


def _parse_value(text: str, line: int):
    text = text.strip()
    m = _SCHEDULE_RE.match(text)
    if m:
        return _parse_schedule(m.group(1), m.group(2), line)
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        try:
            return [float(v) for v in inner.split(",")]
        except ValueError:
            raise ParseError(f"bad list literal {text!r}", line)
    try:
        f = float(text)
        return int(f) if f == int(f) and "." not in text and "e" not in text.lower() else f
    except ValueError:
        pass
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        return text
    raise ParseError(f"cannot parse value {text!r}", line)


def parse_config(text: str) -> Config:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN:
                raise UnknownKey(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if current is None:
            raise ParseError("key outside any [section]", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if not _KNOWN[current].match(key):
            raise UnknownKey(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = _parse_value(value, lineno)
    return Config(sections)


# -- presets ----------------------------------------------------------------
#
# Coefficient mixes psi_t = sum_k i^k b_k H_k for the named equations.
# Signs are resolved once, here, from the equations' +-i prefixes:
# the named equation i psi_t + a1 H1 - i a2 H2 + a3 H3 - i a4 H4 + a5 H5 = 0
# maps to b = (a1, -a2, -a3, a4, a5).


def preset_flow_spec(name: str, params: dict | None = None) -> FlowSpec:
    params = dict(params or {})

    def p(key, default=None):
        if key in params:
            return float(params.pop(key))
        if default is None:
            raise ConfigError(f"preset parameter {key!r} required")
        return default

    name = name.lower()
    if name == "nls":
        coeffs = [1.0]
    elif name == "mkdv":
        coeffs = [0.0, 1.0]
    elif name == "lpd":
        coeffs = [0.0, 0.0, -1.0]
    elif name == "hirota":
        coeffs = [p("alpha", 1.0), -p("beta", 1.0)]
    elif name == "gnls":
        coeffs = [p("alpha", 1.0), -p("beta", 1.0), -p("gamma1", 1.0)]
    elif name == "hnls4":
        coeffs = [p("alpha", 1.0), -p("beta", 1.0), -p("gamma1", 1.0), p("gamma2", 1.0)]
    elif name == "hnls5":
        coeffs = [
            p("alpha", 1.0),
            -p("beta", 1.0),
            -p("gamma1", 1.0),
            p("gamma2", 1.0),
            p("gamma3", 1.0),
        ]
    else:
        raise ConfigError(f"unknown preset {name!r}")
    if params:
        raise ConfigError(f"unused preset parameters {sorted(params)}")
    return FlowSpec.from_coeffs(coeffs)
