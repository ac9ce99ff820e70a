"""Command-line surface: exit codes, determinism, file round-trips."""

import importlib
import json
import pathlib
import warnings

import numpy as np
import pytest

from rakns.cli import build_parser, main
from rakns.diffpoly import from_json
from rakns.solutions import random_riemann_data
from rakns.spectral import Field, Grid, read_field, write_field

GOLDEN = pathlib.Path(__file__).parent / "golden"

CONFIG = """\
[flows]
flow1 = linear(1.0)

[grid]
n = 128
length = 40.0

[time]
dt = 1e-3
t_end = 0.05
method = ifrk4
"""


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hierarchy_show_text(capsys, table5):
    code, out, _ = run(["hierarchy", "show", "--order", "1", "--format", "text"], capsys)
    assert code == 0
    assert "psi_xx" in out


def test_hierarchy_show_json_structural(capsys, table5):
    code, out, _ = run(["hierarchy", "show", "--order", "3", "--format", "json"], capsys)
    assert code == 0
    assert from_json(out) == table5.H[3]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hierarchy_show_json_matches_golden_text(capsys, k):
    code, out, _ = run(["hierarchy", "show", "--order", str(k), "--format", "json"], capsys)
    assert code == 0
    assert out == (GOLDEN / f"H{k}.json").read_text()


def test_hierarchy_verify_stdout_is_pinned(capsys):
    code, out, err = run(["hierarchy", "verify", "--max-order", "7"], capsys)
    assert (code, err) == (0, "")
    assert out == (
        "flow 1: pass\n"
        "flow 2: pass\n"
        "flow 3: pass\n"
        "flow 4: pass\n"
        "flow 5: pass\n"
        "flow 6: pass\n"
        "flow 7: pass\n"
    )


def test_hierarchy_verify_fails_a_corrupted_table(capsys, monkeypatch):
    """F_3 + F_1 in place of F_3: the audit of orders 2 and 3 fails, and the
    command exits 1."""
    import rakns.hierarchy

    good = rakns.hierarchy.build_flows(3)
    F = {**good.F, 3: good.F[3] + good.F[1]}
    broken = type(good)(good.max_order, F, dict(good.D), dict(good.H), dict(good.density))
    monkeypatch.setattr(rakns.hierarchy, "build_flows", lambda K: broken)
    code, out, _ = run(["hierarchy", "verify", "--max-order", "3"], capsys)
    assert code == 1
    assert out == "flow 1: pass\nflow 2: FAIL\nflow 3: FAIL\n"


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["hierarchy", "verify", "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rakns hierarchy verify")


def test_hierarchy_show_deterministic(capsys):
    a = run(["hierarchy", "show", "--order", "4"], capsys)
    b = run(["hierarchy", "show", "--order", "4"], capsys)
    assert a == b


def test_hierarchy_verify(capsys):
    code, out, _ = run(["hierarchy", "verify", "--max-order", "3"], capsys)
    assert code == 0
    assert "flow 3: pass" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["hierarchy", "verify", "--max-order", "0"],
        ["hierarchy", "show", "--order", "0"],
    ],
    ids=["verify_max_order_0", "show_order_0"],
)
def test_hierarchy_order_below_one_is_one_line_exit_2(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert _one_error_line(err) and "Traceback" not in err
    assert "order must be >= 1, got 0" in err


def test_one_parser_serves_every_call(tmp_path, capsys):
    """The parser is built once per process, and a parse leaves nothing in
    it that changes the next call: each subcommand returns its usual code,
    and a repeated call with an appended option prints the same."""
    assert build_parser() is build_parser()
    sample = ["sample", "--solution", "soliton", "--grid", "16,10", "--param", "a=2.0"]
    code, first, _ = run(sample, capsys)
    assert code == 0
    assert run(["hierarchy", "verify", "--max-order", "2"], capsys)[0] == 0
    assert run(["evolve", "--initial", "soliton"], capsys)[0] == 2  # no flows given
    identity = ["identity", "check", "--a", "1.6", "--b", "-0.3", "--max-flow", "2"]
    assert run(identity + ["--tol", "1e-300"], capsys)[0] == 1  # rounding fails a 1e-300 tol
    assert run(sample, capsys) == (0, first, "")


def test_sample_prints_the_body_of_its_field_file(tmp_path, capsys):
    """Without --out, sample prints the sample lines that --out writes."""
    argv = ["sample", "--solution", "soliton", "--grid", "64,20", "--param", "a=1.0"]
    code, printed, _ = run(argv, capsys)
    assert code == 0
    path = tmp_path / "f.txt"
    assert run(argv + ["--out", str(path)], capsys)[0] == 0
    assert printed == "".join(path.read_text().splitlines(keepends=True)[2:])


def test_sample_and_evolve_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    init = tmp_path / "init.txt"
    code, _, _ = run(
        ["sample", "--solution", "soliton", "--grid", "128,40", "--param", "a=1.0",
         "--out", str(init)],
        capsys,
    )
    assert code == 0
    f = read_field(init)
    assert f.grid.n == 128

    out = tmp_path / "snaps"
    code, text, _ = run(
        ["evolve", "--config", str(cfg), "--initial", str(init), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert (out / "snap_0.txt").exists()
    assert (out / "conserved.csv").exists()

    code, text, _ = run(
        ["verify", "residual", "--snapshots", str(out), "--config", str(cfg),
         "--tol", "1e-3"],
        capsys,
    )
    assert code == 0
    assert "worst residual" in text


def test_verify_residual_fails_wrong_equation(tmp_path, capsys):
    """Snapshots of an NLS run must not verify against the mkdv flow."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    init = tmp_path / "init.txt"
    run(["sample", "--solution", "soliton", "--grid", "128,40", "--out", str(init)], capsys)
    out = tmp_path / "snaps"
    run(["evolve", "--config", str(cfg), "--initial", str(init), "--out", str(out)], capsys)

    wrong = tmp_path / "wrong.cfg"
    wrong.write_text(CONFIG.replace("flow1", "flow2"))
    code, _, _ = run(
        ["verify", "residual", "--snapshots", str(out), "--config", str(wrong),
         "--tol", "1e-3"],
        capsys,
    )
    assert code == 1


def test_evolve_parses_config_once(tmp_path, capsys, monkeypatch):
    import rakns.config

    calls = []
    parse = rakns.config.parse_config
    monkeypatch.setattr(rakns.config, "parse_config", lambda text: calls.append(text) or parse(text))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    code, _, _ = run(["evolve", "--config", str(cfg), "--initial", "soliton"], capsys)
    assert code == 0
    assert calls == [CONFIG]


def test_evolve_preset_with_sampler_initial(tmp_path, capsys):
    code, text, _ = run(
        ["evolve", "--preset", "hirota(1.0,0.5)", "--initial", "soliton",
         "--grid", "128,40", "--dt", "1e-3", "--t-end", "0.02"],
        capsys,
    )
    assert code == 0
    assert "final time" in text


def test_transform_exit_codes(capsys):
    code, text, _ = run(
        ["transform", "--a", "1.0", "--b", "0.0", "--sampler", "planewave",
         "--probe", "128,40", "--tol", "1e-4"],
        capsys,
    )
    assert code == 0
    assert "worst residual" in text


def test_transform_csv_output(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    code, _, _ = run(
        ["transform", "--a", "1.0", "--b", "0.0", "--sampler", "planewave",
         "--probe", "128,40", "--tol", "1e-4", "--out", str(out)],
        capsys,
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "x,t,re,im"


def test_identity_check_roundtrip(tmp_path, capsys):
    data = random_riemann_data(2, 5, rng=3)
    path = tmp_path / "rd.json"
    path.write_text(data.to_json())
    code, text, _ = run(
        ["identity", "check", "--riemann", str(path), "--a", "1.4", "--b", "0.3"],
        capsys,
    )
    assert code == 0
    assert "pass" in text


def test_identity_check_refuses_non_finite_data(tmp_path, capsys):
    """inf in V[0] once printed 'pass': every argument error was NaN, and
    max(err, nan) kept err."""
    data = json.loads(random_riemann_data(2, 5, rng=3).to_json())
    data["V"][0][0][0] = float("inf")
    path = tmp_path / "rd.json"
    path.write_text(json.dumps(data))
    code, text, err = run(
        ["identity", "check", "--riemann", str(path), "--a", "1.4", "--b", "0.3", "--max-flow", "3"],
        capsys,
    )
    assert code == 2
    assert "pass" not in text
    assert err.count("\n") == 1 and "V must be finite" in err


@pytest.mark.parametrize(
    "a, b, max_flow",
    [
        ("1e200", "0", "1"),  # a**2 overflows
        ("1e60", "1e60", "5"),  # a**m * b**(j-m) overflows
        ("1.3e154", "0", "1"),  # a**2 is finite, a**2 * V overflows
    ],
)
def test_identity_check_refuses_overflowing_transform(a, b, max_flow, capsys):
    """A float power that overflowed once escaped as a bare OverflowError
    traceback; an overflowing product printed a RuntimeWarning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run(
            ["identity", "check", "--a", a, "--b", b, "--max-flow", max_flow], capsys
        )
    assert code == 2
    assert "pass" not in text
    assert err.count("\n") == 1 and err.startswith("error:") and "must be finite" in err


@pytest.mark.parametrize(
    "module, name, expected",
    [
        ("solutions", "SolutionError", 2),
        ("solutions", "ThetaZeroDivision", 2),
        ("spectral", "UnreducedInput", 1),
        ("config", "UnknownKey", 2),
        ("evolve", "Blowup", 2),
    ],
)
def test_error_class_exit_code(monkeypatch, capsys, module, name, expected):
    """Error classes that no command test drives through main: each exits
    with its code and one 'error:' line."""
    import rakns.hierarchy

    error = getattr(importlib.import_module(f"rakns.{module}"), name)

    def failing(K):
        raise error("injected")

    monkeypatch.setattr(rakns.hierarchy, "build_flows", failing)
    code, text, err = run(["hierarchy", "show", "--order", "1"], capsys)
    assert code == expected
    assert text == "" and err == "error: injected\n"


def test_unexpected_error_propagates(monkeypatch):
    import rakns.hierarchy

    def failing(K):
        raise RuntimeError("injected")

    monkeypatch.setattr(rakns.hierarchy, "build_flows", failing)
    with pytest.raises(RuntimeError, match="injected"):
        main(["hierarchy", "show", "--order", "1"])


def test_identity_check_nan_error_fails(monkeypatch, capsys):
    import rakns.symmetry

    monkeypatch.setattr(
        rakns.symmetry, "identity_errors", lambda *args: {"argument": 0.0, "phase": float("nan")}
    )
    code, text, _ = run(["identity", "check", "--a", "1.4", "--b", "0.3"], capsys)
    assert code == 1
    assert text.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize(
    "a, b, max_flow",
    [("1.3", "0.2", "40"), ("8e153", "0", "1")],
    ids=["high_order", "near_overflow"],
)
def test_identity_check_passes_correct_transforms(a, b, max_flow, capsys):
    """At --max-flow 40 the phases reach 1e8, and their rounding, read as
    an absolute error of 1e-7, once failed a correct transform.  Near
    overflow the definition check must stay finite where P is."""
    code, text, _ = run(["identity", "check", "--a", a, "--b", b, "--max-flow", max_flow], capsys)
    assert code == 0
    assert text.splitlines()[-1] == "pass"


_RIEMANN_EDITS = {
    "as_is": lambda d: d,
    "short_K": lambda d: {**d, "K": d["K"][:-1]},
    "empty_V": lambda d: {**d, "V": []},
    "empty_object": lambda d: {},
    "int_B": lambda d: {"genus": 1, "B": 5},
    "top_list": lambda d: [1, 2],
    "string_genus": lambda d: {**d, "genus": "2"},
    "rho_triple": lambda d: {**d, "rho": [1.0, 2.0, 3.0]},
    "string_pair": lambda d: {**d, "Z": [["1", "0"], ["0", "1"]]},
    "flat_V": lambda d: {**d, "V": d["K"]},
    "ragged_B": lambda d: {**d, "B": [d["B"][0], d["B"][1][:1]]},
    "short_V_entry": lambda d: {**d, "V": [d["V"][0][:1], *d["V"][1:]]},
    "long_Z": lambda d: {**d, "Z": [*d["Z"], [0.0, 0.0]]},
}
_IDENTITY = ["identity", "check", "--a", "1.2", "--b", "0.1"]
_SAMPLE = ["sample", "--solution", "finitegap", "--grid", "16,10"]


@pytest.mark.parametrize(
    "edit, argv, message",
    [
        ("short_K", _IDENTITY, "K must hold K_0..K_6"),
        ("short_K", _SAMPLE, "K must hold K_0..K_6"),
        ("empty_V", _SAMPLE, "V must hold"),
        (None, [*_IDENTITY, "--max-flow", "-1"], "n_flows must be >= 0"),
        ("as_is", [*_IDENTITY, "--max-flow", "-1"], "M must be >= 0"),
        ("empty_object", _IDENTITY, "Riemann data has no 'genus'"),
        ("empty_object", _SAMPLE, "Riemann data has no 'genus'"),
        ("int_B", _IDENTITY, "'B' must be a list of lists of [re, im] pairs"),
        ("int_B", _SAMPLE, "'B' must be a list of lists of [re, im] pairs"),
        ("top_list", _IDENTITY, "must be a JSON object, got list"),
        ("top_list", _SAMPLE, "must be a JSON object, got list"),
        ("string_genus", _IDENTITY, "'genus' must be an integer"),
        ("rho_triple", _SAMPLE, "'rho' must be an [re, im] pair"),
        ("string_pair", _IDENTITY, "'Z' must be a list of [re, im] pairs"),
        ("flat_V", _SAMPLE, "'V' must be a list of lists of [re, im] pairs"),
        ("ragged_B", _IDENTITY, "B must have shape (2, 2)"),
        ("ragged_B", _SAMPLE, "B must have shape (2, 2)"),
        ("short_V_entry", _IDENTITY, "V[0] must have shape (2,)"),
        ("short_V_entry", _SAMPLE, "V[0] must have shape (2,)"),
        ("long_Z", _IDENTITY, "Z must have shape (2,)"),
        ("long_Z", _SAMPLE, "Z must have shape (2,)"),
    ],
    ids=[
        "identity_short_K", "sample_short_K", "sample_empty_V", "random_negative_flows",
        "file_negative_flows", "identity_missing_key", "sample_missing_key", "identity_int_B",
        "sample_int_B", "identity_top_list", "sample_top_list", "identity_string_genus",
        "sample_rho_triple", "identity_string_pair", "sample_flat_V", "identity_ragged_B",
        "sample_ragged_B", "identity_short_V_entry", "sample_short_V_entry", "identity_long_Z",
        "sample_long_Z",
    ],
)
def test_malformed_riemann_data_is_one_line_exit_2(tmp_path, capsys, edit, argv, message):
    """A K too short for V once ended in an IndexError traceback, exit 1;
    a negative flow count in a message about -1 flow vectors.  A missing
    key, a value of the wrong type or a top level that is no object once
    ended in a KeyError or TypeError traceback, and a triple or a string
    genus was read as if it were well formed.  A ragged B, or a V entry or
    Z of the wrong length, was refused in numpy's words, naming no key."""
    if edit:
        data = _RIEMANN_EDITS[edit](json.loads(random_riemann_data(2, 5, rng=1).to_json()))
        path = tmp_path / "rd.json"
        path.write_text(json.dumps(data))
        argv = [*argv, "--riemann", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert _one_error_line(err) and message in err


def test_sample_refuses_nan_in_riemann_matrix(tmp_path, capsys):
    """NaN in Re B once passed the symmetry check and sampled into a numpy
    RuntimeWarning and a 'field contains NaN/Inf samples' usage error."""
    data = json.loads(random_riemann_data(1, 2, rng=8).to_json())
    data["B"][0][0][0] = float("nan")
    path = tmp_path / "rd.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            ["sample", "--solution", "finitegap", "--riemann", str(path), "--grid", "16,10"],
            capsys,
        )
    assert code == 2
    assert err.count("\n") == 1 and "B must be finite" in err


@pytest.mark.parametrize("times", [["nan"], ["0.1", "inf"]])
def test_sample_refuses_non_finite_times(tmp_path, capsys, times):
    """A NaN time once printed numpy's 'invalid value encountered in divide'
    and then a 'field contains NaN/Inf samples' usage error."""
    path = tmp_path / "rd.json"
    path.write_text(random_riemann_data(2, 3, rng=0).to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            ["sample", "--solution", "finitegap", "--riemann", str(path), "--grid", "64,10", "--times", *times],
            capsys,
        )
    assert code == 2
    assert _one_error_line(err) and "times must be finite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identity", "check", "--a", "1", "--b", "nan"], "b must be finite"),
        (["identity", "check", "--a", "inf", "--b", "0"], "a must be finite"),
        (["sample", "--solution", "soliton", "--grid", "64,10", "--param", "a=inf"], "amplitude a must be positive and finite"),
        (["sample", "--solution", "planewave", "--grid", "64,10", "--param", "q=inf"], "q must be positive and finite"),
    ],
)
def test_non_finite_parameters_are_refused_by_name(capsys, argv, message):
    """A NaN b was reported as 'V must be finite', an infinite amplitude as
    'field contains NaN/Inf samples'."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run(argv, capsys)
    assert code == 2
    assert "pass" not in text
    assert _one_error_line(err) and message in err


def test_sample_finitegap(tmp_path, capsys):
    data = random_riemann_data(1, 2, rng=8)
    path = tmp_path / "rd.json"
    path.write_text(data.to_json())
    out = tmp_path / "fg.txt"
    code, _, _ = run(
        ["sample", "--solution", "finitegap", "--riemann", str(path),
         "--grid", "16,10", "--times", "0.1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    f = read_field(out)
    assert np.all(np.isfinite(f.values.view(float)))


def test_sample_finitegap_genus3_overflowing_thetas(tmp_path, capsys):
    """Each theta overflows on most of this grid; the sampled ratio does not."""
    path = tmp_path / "rd.json"
    path.write_text(random_riemann_data(3, 5, rng=1).to_json())
    out = tmp_path / "fg.txt"
    code, _, _ = run(
        ["sample", "--solution", "finitegap", "--riemann", str(path),
         "--grid", "256,40", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert np.all(np.isfinite(read_field(out).values.view(float)))


def test_usage_errors_are_clean(capsys):
    code, _, err = run(["sample", "--solution", "soliton", "--grid", "nonsense"], capsys)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_missing_config_file(capsys):
    code, _, err = run(
        ["evolve", "--config", "/does/not/exist.cfg", "--initial", "soliton"],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_unknown_sampler(capsys):
    code, _, err = run(
        ["sample", "--solution", "planewave", "--grid", "16,10", "--param", "nonsense"],
        capsys,
    )
    assert code == 2


def _one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def test_evolve_blowup_exits_1_with_last_good(tmp_path, capsys):
    """hnls5 at dt = 2e-4 on n = 256 blows up: the nonlinear H5 terms are
    stiff beyond what the linear integrating factor removes."""
    out = tmp_path / "run"
    code, _, err = run(
        ["evolve", "--preset", "hnls5(1,0.4,0.1,0.05,0.02)", "--initial", "soliton",
         "--grid", "256,40", "--dt", "2e-4", "--t-end", "0.01", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert err.startswith("blow-up:")
    assert np.all(np.isfinite(read_field(out / "last_good.txt").values.view(float)))


def test_evolve_zero_dt_is_usage_error(capsys):
    code, _, err = run(
        ["evolve", "--preset", "nls", "--initial", "soliton", "--grid", "256,40",
         "--dt", "0", "--t-end", "0.1"],
        capsys,
    )
    assert code == 2
    assert _one_error_line(err)


def test_evolve_stability_violation_exits_1(capsys):
    code, _, err = run(
        ["evolve", "--preset", "nls", "--initial", "soliton", "--grid", "1024,10",
         "--dt", "0.1", "--t-end", "0.1", "--method", "rk4"],
        capsys,
    )
    assert code == 1
    assert _one_error_line(err)


def test_evolve_ifrk4_on_deformed_spec_matches_rk4(tmp_path, capsys):
    """ifrk4 runs a deformed schedule (it once exited 2 as "requires
    Linear"), and its last snapshot is where the rk4 oracle's is."""
    cfg = tmp_path / "sin.cfg"
    cfg.write_text(CONFIG.replace("linear(1.0)", "sin(1.0, 1.0)"))
    finals = []
    for method in ("ifrk4", "rk4"):
        out = tmp_path / method
        argv = ["evolve", "--config", str(cfg), "--initial", "soliton", "--method", method, "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        finals.append(read_field(out / "snap_50.txt").values)  # t = 0.05, the last of 51
    assert np.max(np.abs(finals[0] - finals[1])) < 1e-10


def test_evolve_unknown_config_method_names_its_line(tmp_path, capsys):
    """A method outside auto|rk4|ifrk4 fails when the config is parsed, on
    its line, not later as an unknown method with no line."""
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text(CONFIG.replace("method = ifrk4", "method = bogus"))
    code, _, err = run(["evolve", "--config", str(cfg), "--initial", "soliton"], capsys)
    assert code == 2
    assert _one_error_line(err) and "line 11: method:" in err


def test_evolve_config_snapshot_stride(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("t_end = 0.05", "t_end = 0.1\nsnapshot_stride = 5"))
    out = tmp_path / "snaps"
    code, text, _ = run(
        ["evolve", "--config", str(cfg), "--initial", "soliton", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "wrote 21 snapshots" in text
    assert len(list(out.glob("snap_*.txt"))) == 21


def _field_file(path, n=16, length=10.0):
    write_field(Field(Grid(n, length), np.full(n, 0.1, dtype=complex)), path)
    return path.read_text().splitlines()


@pytest.mark.parametrize(
    "damage", ["magic", "missing_key", "out_of_range", "repeated", "short", "bad_line"]
)
def test_evolve_malformed_field_file_is_usage_error(tmp_path, capsys, damage):
    """A field file that breaks the format is bad input: exit 2, one line."""
    path = tmp_path / "init.txt"
    lines = _field_file(path)
    if damage == "magic":
        lines[0] = "# some other file"
    elif damage == "missing_key":
        lines[1] = "L=10 t=0"
    elif damage == "out_of_range":
        lines[-1] = "16 0.1 0"
    elif damage == "repeated":
        lines[-1] = "3 0.1 0"
    elif damage == "bad_line":
        lines[-1] = "15 0.1"
    else:
        lines = lines[:-1]
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        ["evolve", "--preset", "nls", "--initial", str(path), "--dt", "1e-3", "--t-end", "1e-3"],
        capsys,
    )
    assert code == 2
    assert _one_error_line(err)


@pytest.mark.parametrize("t", ["nan", "inf"])
@pytest.mark.parametrize("flow", ["linear(1.0)", "sin(1.0, 2.0)"])
def test_evolve_non_finite_field_time_is_usage_error(tmp_path, capsys, t, flow):
    """A field file stamped t=nan or t=inf is bad input: exit 2 with one
    line naming t=, not snapshots stamped t=nan or a math domain error."""
    path = tmp_path / "init.txt"
    lines = _field_file(path, n=128, length=40.0)
    lines[1] = lines[1].replace("t=0", f"t={t}")
    path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("linear(1.0)", flow))
    out = tmp_path / "run"
    code, _, err = run(["evolve", "--config", str(cfg), "--initial", str(path), "--out", str(out)], capsys)
    assert code == 2
    assert _one_error_line(err) and f"t={t}" in err
    assert not out.exists()


def test_verify_residual_mixed_grids_still_fails_check(tmp_path, capsys):
    """Well-formed snapshots on different grids fail the check (exit 1)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for i, n in enumerate((16, 16, 32)):
        write_field(Field(Grid(n, 10.0), np.ones(n, dtype=complex), 0.1 * i), snaps / f"snap_{i}.txt")
    code, _, err = run(
        ["verify", "residual", "--snapshots", str(snaps), "--config", str(cfg)], capsys
    )
    assert code == 1
    assert _one_error_line(err)


@pytest.mark.parametrize(
    "grid_args, config_grid",
    [
        (["--grid", "32,10"], None),
        (["--grid", "16,5"], None),
        ([], "n = 64\nlength = 10.0"),
        ([], "n = 32"),
        ([], "length = 40.0"),
        (["--grid", "16,10"], "n = 32"),
    ],
)
def test_evolve_grid_must_match_field_file(tmp_path, capsys, grid_args, config_grid):
    """A stated grid that is not the initial file's is rejected, not ignored."""
    path = tmp_path / "init.txt"
    _field_file(path)
    argv = ["evolve", "--initial", str(path), *grid_args]
    if config_grid:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace("n = 128\nlength = 40.0", config_grid))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--preset", "nls", "--dt", "1e-3", "--t-end", "1e-3"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert _one_error_line(err) and "disagrees" in err


@pytest.mark.parametrize(
    "config_grid, grid_args",
    [
        ("n = 16\nlength = 10", ["--grid", "16,10"]),
        ("n = 16", []),
        ("length = 10", []),
        ("", []),
    ],
    ids=["both_keys_and_flag", "n_only", "length_only", "no_keys"],
)
def test_evolve_grid_matching_field_file_runs(tmp_path, capsys, config_grid, grid_args):
    """Only the grid keys a [grid] section states are held to the file's;
    the 256, 40 defaults apply to sampler initials alone."""
    path = tmp_path / "init.txt"
    _field_file(path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("n = 128\nlength = 40.0", config_grid))
    code, text, _ = run(["evolve", "--config", str(cfg), "--initial", str(path), *grid_args], capsys)
    assert code == 0
    assert "final time" in text


_EVOLVE = ["evolve", "--initial", "soliton"]
_PRESET_RUN = ["--grid", "64,20", "--dt", "1e-3", "--t-end", "2e-3"]
_TRANSFORM = ["transform", "--a", "1.2", "--b", "0.1", "--sampler", "soliton", "--probe", "64,20"]
_IDENTITY = ["identity", "check", "--a", "1.2", "--b", "0.1"]


@pytest.mark.parametrize(
    "config_edit, argv",
    [
        (("dt = 1e-3", "dt = [1,2]"), _EVOLVE),
        (("dt = 1e-3", "dt = linear(1)"), _EVOLVE),
        (("length = 40.0", "length = inf"), _EVOLVE),
        (("length = 40.0", "length = nan"), _EVOLVE),
        (("n = 128", "n = 1e3"), _EVOLVE),
        (("linear(1.0)", "linear(nan)"), _EVOLVE),
        (None, [*_EVOLVE, "--preset", "hnls5(1,2,3,4,5,6)", *_PRESET_RUN]),
        (None, [*_EVOLVE, "--preset", "hirota(1,nan)", *_PRESET_RUN]),
        (None, ["transform", "--a", "1e200", "--b", "0", "--sampler", "soliton", "--probe", "64,10"]),
        (None, ["transform", "--a", "1", "--b", "1e200", "--sampler", "soliton", "--probe", "64,10"]),
        (None, ["identity", "check", "--a", "1", "--b", "0", "--genus", "0"]),
        (None, ["identity", "check", "--a", "1", "--b", "0", "--genus", "-1"]),
        (None, [*_TRANSFORM, "--tol", "nan"]),
        (None, [*_TRANSFORM, "--tol", "0"]),
        (None, [*_TRANSFORM, "--t", "nan"]),
        (None, [*_TRANSFORM, "--t", "inf"]),
        (("dt = 1e-3", "dt = 1e-3"), ["verify", "residual", "--snapshots", ".", "--tol", "-1"]),
        (None, [*_IDENTITY, "--tol", "nan"]),
        (None, [*_IDENTITY, "--tol", "inf"]),
        (None, ["hierarchy", "verify", "--max-order", "abc"]),
        (None, [*_EVOLVE, "--preset", "nls", "--dt", "x"]),
    ],
    ids=[
        "dt_list", "dt_schedule", "length_inf", "length_nan", "n_float", "flow_nan",
        "preset_six_values", "preset_nan", "transform_a_overflow", "transform_b_overflow",
        "genus_0", "genus_negative", "transform_tol_nan", "transform_tol_0",
        "transform_t_nan", "transform_t_inf",
        "verify_residual_tol_negative", "identity_tol_nan", "identity_tol_inf",
        "max_order_not_int", "dt_not_float",
    ],
)
def test_bad_input_is_one_line_exit_2(tmp_path, capsys, config_edit, argv):
    """Each of these once ended in a traceback, ran to a 'blow-up' exit 1,
    or exited 2 with numpy's words rather than the input's."""
    if config_edit:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.replace(*config_edit))
        argv = [*argv, "--config", str(cfg)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(argv, capsys)
    assert code == 2
    assert _one_error_line(err) and "Traceback" not in err
    if "--genus" in argv:
        assert "genus must be >= 1" in err
    if "--tol" in argv:
        assert "--tol must be positive and finite" in err
    if "--t" in argv:
        assert "--t must be finite" in err
