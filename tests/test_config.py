"""Config parsing: schedule literals, validation, presets."""

import pytest

from rakns.config import (
    BadScheduleLiteral,
    ConfigError,
    ParseError,
    UnknownKey,
    parse_config,
    parse_preset,
    preset_flow_spec,
)
from rakns.evolve import Bump, Linear, Poly, Sinusoid

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
    assert isinstance(cfg.sections["flows"]["flow1"], Linear)
    assert isinstance(cfg.sections["flows"]["flow2"], Sinusoid)
    assert isinstance(cfg.sections["flows"]["flow3"], Bump)
    assert cfg.sections["grid"]["n"] == 256
    assert cfg.sections["time"]["method"] == "ifrk4"
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


# -- one typed parser per key ------------------------------------------------


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("flows", "flow1", "[1, 2]"),
        ("flows", "flow1", "1.0"),
        ("flows", "flow1", "linear"),
        ("flows", "flow1", "cosh(1.0)"),
        ("flows", "flow1", "linear(1, 2, 3)"),
        ("flows", "flow1", "linear(nan)"),
        ("flows", "flow2", "sin(1.0, inf)"),
        ("flows", "flow3", "bump(0.0, nan, 1.0)"),
        ("flows", "flow4", "poly()"),
        ("flows", "flow5", "poly(1.0, -inf)"),
        ("grid", "n", "1e3"),
        ("grid", "n", "64.0"),
        ("grid", "n", "[64]"),
        ("grid", "n", "sixty-four"),
        ("grid", "n", "inf"),
        ("grid", "n", "100"),
        ("grid", "n", "8"),
        ("grid", "n", "0"),
        ("grid", "n", "-16"),
        ("grid", "length", "inf"),
        ("grid", "length", "0"),
        ("grid", "length", "-1"),
        ("grid", "length", "nan"),
        ("grid", "length", "[1, 2]"),
        ("grid", "length", "linear(1)"),
        ("time", "dt", "[1, 2]"),
        ("time", "dt", "linear(1)"),
        ("time", "dt", "-inf"),
        ("time", "dt", "nan"),
        ("time", "dt", ""),
        ("time", "dt", "0"),
        ("time", "dt", "-1e-3"),
        ("time", "t_end", "inf"),
        ("time", "t_end", "one"),
        ("time", "t_end", "-1"),
        ("time", "snapshot_stride", "0"),
        ("time", "snapshot_stride", "-2"),
        ("time", "snapshot_stride", "2.5"),
        ("time", "snapshot_stride", "1e1"),
        ("time", "snapshot_stride", "nan"),
        ("time", "method", "bogus"),
        ("time", "method", "RK4"),
    ],
)
def test_bad_value_names_its_line(section, key, value):
    with pytest.raises(ConfigError) as e:
        parse_config(f"# run\n[{section}]\n{key} = {value}\n")
    assert type(e.value) is (BadScheduleLiteral if section == "flows" else ParseError)
    assert e.value.line == 3
    assert str(e.value).startswith(f"line 3: {key}:")


def test_bad_time_value_message():
    """dt must be positive, t_end non-negative and snapshot_stride a
    positive integer; each refusal names its line and value."""
    text = "[flows]\nflow1 = linear(1)\n\n[grid]\nn = 64\n\n[time]\n{}\n"
    for line, message in [
        ("dt = 0", "line 8: dt: must be positive, got '0'"),
        ("t_end = -1", "line 8: t_end: must be non-negative, got '-1'"),
        ("snapshot_stride = 0", "line 8: snapshot_stride: must be positive, got '0'"),
    ]:
        with pytest.raises(ParseError) as e:
            parse_config(text.format(line))
        assert str(e.value) == message
    assert parse_config(text.format("t_end = 0")).sections["time"]["t_end"] == 0.0


def test_bad_grid_value_message():
    """n must be a power of two >= 16 and length positive, as Grid needs;
    the config refuses either at its line, before a Grid is made."""
    text = "[flows]\nflow1 = linear(1)\n\n[grid]\n{}\n"
    for line, message in [
        ("n = 100", "line 5: n: must be a power of two >= 16, got '100'"),
        ("length = -1", "line 5: length: must be positive, got '-1'"),
    ]:
        with pytest.raises(ParseError) as e:
            parse_config(text.format(line))
        assert str(e.value) == message
    assert parse_config(text.format("n = 16")).sections["grid"]["n"] == 16


def test_values_have_their_key_type():
    cfg = parse_config(
        "[flows]\nflow1 = linear(2)\nflow2 = sin(1, 2)\nflow3 = poly(1, 2, 3)\n"
        "[grid]\nn = 64\nlength = 40\n"
        "[time]\ndt = 1\nt_end = 2e-3\nmethod = rk4\nsnapshot_stride = 5\n"
    )
    assert cfg.sections["flows"]["flow1"] == Linear(2.0, 0.0)
    assert cfg.sections["flows"]["flow2"] == Sinusoid(1.0, 2.0, 0.0)
    assert cfg.sections["flows"]["flow3"] == Poly([1.0, 2.0, 3.0])
    typed = [cfg.sections[s][k] for s, k in [("grid", "n"), ("time", "snapshot_stride"),
                                        ("grid", "length"), ("time", "dt"), ("time", "method")]]
    assert typed == [64, 5, 40.0, 1.0, "rk4"]
    assert [type(v) for v in typed] == [int, int, float, float, str]


def test_readme_example_config_values():
    cfg = parse_config(
        "[flows]\nflow1 = linear(1.0)        # constant coefficient\n"
        "flow2 = sin(0.5, 2.0)\nflow3 = bump(0.0, 1.0, 0.3)\n\n"
        "[grid]\nn = 256\nlength = 40.0\n\n"
        "[time]\ndt = 1e-3\nt_end = 1.0\nmethod = ifrk4\nsnapshot_stride = 5\n"
    )
    assert cfg.sections == {
        "flows": {"flow1": Linear(1.0), "flow2": Sinusoid(0.5, 2.0), "flow3": Bump(0.0, 1.0, 0.3)},
        "grid": {"n": 256, "length": 40.0},
        "time": {"dt": 1e-3, "t_end": 1.0, "method": "ifrk4", "snapshot_stride": 5},
    }


# -- preset literals ---------------------------------------------------------


def test_parse_preset_positional_and_keyword():
    assert _coeffs(parse_preset("nls")) == [1.0]
    assert _coeffs(parse_preset(" hirota( 2.0 , 0.5 ) ")) == [2.0, -0.5]
    assert _coeffs(parse_preset("gnls(2, gamma1=3)")) == [2.0, -1.0, -3.0]
    assert _coeffs(parse_preset("hnls5(1,2,3,4,5)")) == [1.0, -2.0, -3.0, 4.0, 5.0]


@pytest.mark.parametrize(
    "text",
    ["hnls5(1,2,3,4,5,6)", "hirota(1, alpha=2)", "nls(1)", "kdv", "hirota x", "hirota(1,beta)"],
)
def test_parse_preset_refuses(text):
    with pytest.raises((ConfigError, ValueError)):
        parse_preset(text)


@pytest.mark.parametrize("text", ["hirota(1,nan)", "hnls4(1, gamma2=inf)"])
def test_parse_preset_refuses_non_finite(text):
    with pytest.raises(ValueError, match="must be finite"):
        parse_preset(text)
