"""Config parsing: schedule literals, validation, presets."""

import pytest

from rakns.config import (
    BadScheduleLiteral,
    ConfigError,
    ParseError,
    UnknownKey,
    parse_config,
    preset_flow_spec,
)
from rakns.evolve import Bump, Linear, Sinusoid

GOOD = """\
# a comment
[flows]
flow1 = linear(1.0)
flow2 = sin(0.5, 2.0)
flow3 = bump(0.0, 1.0, 0.3)

[grid]
n = 256
length = 40.0

[time]
dt = 1e-3
t_end = 1.0
method = ifrk4
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert isinstance(cfg.get("flows", "flow1"), Linear)
    assert isinstance(cfg.get("flows", "flow2"), Sinusoid)
    assert isinstance(cfg.get("flows", "flow3"), Bump)
    assert cfg.get("grid", "n") == 256
    assert cfg.get("time", "method") == "ifrk4"
    spec = cfg.flow_spec()
    assert [k for k, _ in spec.entries] == [1, 2, 3]


def test_unknown_section_line_number():
    with pytest.raises(UnknownKey) as e:
        parse_config("[nonsense]\nx = 1\n")
    assert e.value.line == 1


def test_unknown_key():
    with pytest.raises(UnknownKey):
        parse_config("[grid]\nresolution = 4\n")


def test_unread_sections_rejected():
    for section in ("initial", "transform"):
        with pytest.raises(UnknownKey):
            parse_config(f"[{section}]\na = 1\n")


def test_duplicate_key():
    with pytest.raises(ParseError):
        parse_config("[grid]\nn = 64\nn = 128\n")


def test_key_outside_section():
    with pytest.raises(ParseError):
        parse_config("n = 64\n")


def test_bad_schedule_arguments():
    with pytest.raises(BadScheduleLiteral):
        parse_config("[flows]\nflow1 = bump(1.0)\n")
    with pytest.raises(BadScheduleLiteral):
        parse_config("[flows]\nflow1 = linear(a, b)\n")


def test_flow_spec_requires_flows():
    cfg = parse_config("[grid]\nn = 64\n")
    with pytest.raises(ConfigError):
        cfg.flow_spec()


def test_flow_key_pattern():
    with pytest.raises(UnknownKey):
        parse_config("[flows]\nflow0 = linear(1.0)\n")


# -- presets -----------------------------------------------------------------


def _coeffs(spec):
    out = [0.0] * spec.max_order
    for k, sched in spec.entries:
        out[k - 1] = sched.slope
    return out


def test_preset_nls_mkdv_lpd():
    assert _coeffs(preset_flow_spec("nls")) == [1.0]
    assert _coeffs(preset_flow_spec("mkdv")) == [0.0, 1.0]
    assert _coeffs(preset_flow_spec("lpd")) == [0.0, 0.0, -1.0]


def test_preset_hirota_signs():
    spec = preset_flow_spec("hirota", {"alpha": 2.0, "beta": 3.0})
    assert _coeffs(spec) == [2.0, -3.0]


def test_preset_hnls5_full_mix():
    spec = preset_flow_spec(
        "hnls5",
        {"alpha": 1.0, "beta": 2.0, "gamma1": 3.0, "gamma2": 4.0, "gamma3": 5.0},
    )
    assert _coeffs(spec) == [1.0, -2.0, -3.0, 4.0, 5.0]


def test_preset_unknown():
    with pytest.raises(ConfigError):
        preset_flow_spec("kdv")


def test_preset_rejects_stray_params():
    with pytest.raises(ConfigError):
        preset_flow_spec("nls", {"alpha": 1.0})
