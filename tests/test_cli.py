"""Command-line surface: exit codes, determinism, file round-trips."""

import contextlib
import errno
import importlib
import io
import json
import math
import os
import pathlib
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rakns.hierarchy
from rakns.cli import OK, USAGE, VERIFY_FAILED, _FAILED, CliError, _difference_times, _exit_code, build_parser, main
from rakns.config import parse_config, parse_preset
from rakns.diffpoly import DiffPoly, MatrixDP, from_json
from rakns.evolve import Blowup, evolve_run
from rakns.solutions import (
    RiemannData,
    finite_gap_sample,
    finite_gap_sampler,
    peregrine,
    plane_wave,
    random_riemann_data,
    soliton,
)
from rakns.spectral import FIELD_MAGIC, Field, Grid, format_samples, read_field, sample_onto_grid, write_field
from rakns.symmetry import SymmetryParams, transform_solution

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
    code, out, err = run(["hierarchy", "verify", "--max-order", "3"], capsys)
    assert code == 1
    assert out == "flow 1: pass\nflow 2: FAIL\nflow 3: FAIL\n"
    assert err == "error: hierarchy verify failed: flow 2 does not satisfy zero curvature\n"


def test_hierarchy_verify_failure_is_one_error_line(capsys, monkeypatch):
    """A failed audit exited 1 with its FAIL line on stdout and nothing on
    stderr; it now prints the one 'error:' line of every failed check."""
    import rakns.hierarchy

    report = rakns.hierarchy.CurvatureReport(1, {0: True, 1: False})
    monkeypatch.setattr(rakns.hierarchy, "_curvature_reports", lambda table, K: iter([report]))
    code, out, err = run(["hierarchy", "verify", "--max-order", "1"], capsys)
    assert (code, out) == (VERIFY_FAILED, "flow 1: FAIL\n")
    assert _one_error_line(err) and "flow 1" in err


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
    code, _, err = run(
        ["verify", "residual", "--snapshots", str(out), "--config", str(wrong),
         "--tol", "1e-3"],
        capsys,
    )
    assert code == 1
    assert _one_error_line(err) and err.startswith("error: verify residual failed: t=")


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


def test_transform_nan_residual_fails_the_verdict(capsys):
    """A residual that is not finite fails the check: on the probe 64,1e-300
    every flow's residual was NaN, and max(worst, r) dropped it, printed
    'worst residual 0.000e+00' and exited 0.  That grid is now refused as
    too short (below); a plane wave of amplitude 1e50, whose cubic terms
    overflow, still gives a residual that is not finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["transform", "--a", "1", "--b", "0", "--sampler", "planewave", "--param", "q=1e50", "--probe", "64,40"],
            capsys,
        )
    assert code == VERIFY_FAILED
    assert _one_error_line(err) and "not finite" in err
    assert "worst residual" not in out


def test_transform_probe_too_short_for_its_derivatives_names_the_grid(capsys):
    """On the probe 64,1e-300, xi^2 overflows: the residual was NaN and the
    check failed (exit 1).  The grid is the bad input: exit 2, naming its
    length, as evolve does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["transform", "--a", "1", "--b", "0", "--sampler", "soliton", "--probe", "64,1e-300", "--t", "0"],
            capsys,
        )
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and "grid length 1e-300" in err


def test_transform_peregrine_far_field_warns_nothing(capsys):
    """On the probe 64,1e300 the Peregrine denominator overflows to inf,
    which gives the far-field value e^{2it}; a RuntimeWarning once leaked
    beside the verdict, and a traceback under the error filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["transform", "--a", "-1", "--b", "10", "--sampler", "peregrine", "--probe", "64,1e300", "--t", "1e-3"],
            capsys,
        )
    assert code == VERIFY_FAILED and _one_error_line(err)
    assert err.startswith("error: transform failed: flow 1 residual")
    assert "worst residual" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--preset", "nls", "--initial", "soliton", "--grid", "16,5e-324", "--dt", "1e-3", "--t-end", "0"],
        ["transform", "--a", "1", "--b", "0", "--sampler", "soliton", "--probe", "16,5e-324"],
        ["sample", "--solution", "soliton", "--grid", "64,5e-324"],
    ],
    ids=["evolve", "transform", "sample"],
)
def test_grid_whose_spacing_underflows_is_refused(capsys, argv):
    """L = 5e-324 is positive, but L/n is 0: numpy's fftfreq divided by it
    and the run ended in a ZeroDivisionError traceback (sample printed n
    copies of one point)."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and "spacing underflows to 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--solution", "planewave", "--param", "q=1e308", "--grid", "16,10"], "q = 1e+308 overflows"),
        (["transform", "--a", "1", "--b", "0", "--sampler", "soliton", "--param", "a=1e150", "--probe", "16,10"],
         "amplitude a = 1e+150 overflows"),
        (["evolve", "--initial", "planewave", "--param", "q=1e60", "--preset", "nls", "--grid", "16,10", "--dt", "1e-3",
          "--t-end", "1e-3"], "q = 1e+60 overflows"),
        (["sample", "--solution", "soliton", "--param", "a=1.5", "--grid", "16,10", "--times", "1e308"], "NaN/Inf"),
        (["sample", "--solution", "planewave", "--param", "q=1.5", "--grid", "16,10", "--times", "1e308"], "NaN/Inf"),
        (["transform", "--a", "1", "--b", "1e308", "--sampler", "peregrine", "--probe", "16,10"], "NaN/Inf"),
        (["transform", "--a", "1e308", "--b", "1e308", "--sampler", "peregrine", "--probe", "16,10"], "NaN/Inf"),
    ],
    ids=["planewave_rate", "soliton_rate", "evolve_initial_rate", "soliton_phase", "planewave_phase",
         "transform_boost", "transform_scale_and_boost"],
)
def test_sampler_overflow_is_one_line(capsys, argv, message):
    """A q or a whose flow rates overflow ended in an OverflowError traceback
    from Python's float power; a phase rate times a time beyond the float
    range, and a boost of 1e308 through the argument map of transform,
    printed numpy's invalid-value warnings before the one line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and message in err


def test_transform_of_a_sampler_with_no_flow_is_refused(tmp_path, capsys):
    """Finite-gap data of no flow leaves transform no flow to check: it
    exits 2, as it did when every run sampled the --out field, and does
    not pass with 'worst residual 0.000e+00'."""
    path = tmp_path / "rd.json"
    path.write_text(random_riemann_data(1, 0, rng=1).to_json())
    argv = ["transform", "--a", "1.1", "--b", "0.1", "--sampler", "finitegap", "--param", f"riemann={path}"]
    code, out, err = run([*argv, "--probe", "32,10"], capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and "has no flow to check" in err


@pytest.mark.parametrize("t", ["1e12", "-1e12", "1e308"])
def test_transform_t_too_large_to_difference_is_refused(capsys, t):
    """From |t| = 2^37 (about 1.4e11) on, a step of 1e-5 away from zero
    rounds back to t, and further out t - 1e-5, t and t + 1e-5 are one
    float: the centred difference has no step, and transform exited 1 with
    'residual fields must be equally spaced in time', an internal
    precondition reported as a failed check.  It is bad input: exit 2,
    naming --t."""
    argv = ["transform", "--a", "1", "--b", "0", "--sampler", "soliton", "--probe", "16,10", f"--t={t}"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and err.startswith(f"error: --t {float(t):g} ")


@pytest.mark.parametrize("t", ["0.5", "1", "-1", "4", "-32"])
def test_transform_t_at_a_power_of_two_is_checked(capsys, t):
    """Just below a power of two the floats are twice as fine, so t - 1e-5
    and t + 1e-5 round to steps that differ by one ulp there, and
    transform --t 1 exited 1 with 'residual fields must be equally
    spaced in time'.  It now checks every flow."""
    argv = ["transform", "--a", "1.0", "--b", "0.0", "--sampler", "planewave", "--probe", "128,40", "--tol", "1e-4"]
    code, out, err = run([*argv, f"--t={t}"], capsys)
    assert (code, err) == (0, "")
    assert out.count("residual") == 6


def test_transform_difference_times_keep_every_even_triple():
    """transform samples at t - 1e-5, t and t + 1e-5 for every --t those
    steps move, powers of two and their neighbours included, where it
    once snapped the step to keep it even; any other --t is refused."""
    rng = np.random.default_rng(5)
    powers = [s * 2.0**e for e in range(-40, 60) for s in (1, -1)]
    near = [math.nextafter(p, toward) for p in powers for toward in (0.0, math.inf * p)]
    randoms = (rng.choice([-1, 1], 3000) * 10 ** rng.uniform(-12, 14, 3000)).tolist()
    for t in [0.0, 0.3, 1e-3, *powers, *near, *randoms]:
        try:
            times = _difference_times(t)
        except CliError:
            assert abs(t) + 1e-5 == abs(t)
            continue
        assert times == (t - 1e-5, t, t + 1e-5)
        assert times[0] < t < times[2]


def _verify_three_snapshots(tmp_path, capsys, grid, amplitude):
    """``verify residual`` of three snapshots of one field, 1e-3 apart."""
    values = amplitude * (1.0 + 0.1 * np.cos(2 * np.pi * np.arange(grid.n) / grid.n)) + 0j
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for i in range(3):
        write_field(Field(grid, values, i * 1e-3), snaps / f"snap_{i}.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(["verify", "residual", "--snapshots", str(snaps), "--config", str(cfg)], capsys)


def test_verify_residual_nan_fails_the_verdict(tmp_path, capsys):
    """The twin of the transform case: snapshots of amplitude 1e200, whose
    cubic term overflows, give a residual that is not finite, which must
    fail the check, not pass it."""
    code, out, err = _verify_three_snapshots(tmp_path, capsys, Grid(64, 10.0), 1e200)
    assert code == VERIFY_FAILED
    assert _one_error_line(err) and "not finite" in err
    assert "worst residual" not in out


def test_verify_residual_grid_too_short_for_its_derivatives_names_the_grid(tmp_path, capsys):
    """Snapshots on a grid of length 1e-300, where xi^2 overflows, gave a
    NaN residual (exit 1); the grid is refused as bad input: exit 2,
    naming its length."""
    code, out, err = _verify_three_snapshots(tmp_path, capsys, Grid(64, 1e-300), 1.0)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and "grid length 1e-300" in err


# -- every sample file the CLI writes, as a property ---------------------------
#
# Grids of at most 64 points and runs of at most 40 steps; a fixed,
# derandomised example budget per file.

_small_grids = st.tuples(st.sampled_from([16, 32, 64]), st.sampled_from([10.0, 20.0, 40.0]))
_small_times = st.integers(-1000, 1000).map(lambda k: k / 1000)  # no exponent: argparse reads '-1e-05' as an option


def _sampler_inputs(draw, work):
    """A sampler name, its --param options, and the library's sampler from
    the same inputs; a finite-gap sampler's data is written into work."""
    name = draw(st.sampled_from(["planewave", "soliton", "peregrine", "finitegap"]))
    if name == "finitegap":
        path = work / "riemann.json"
        path.write_text(random_riemann_data(draw(st.integers(1, 2)), 5, rng=draw(st.integers(0, 2**16))).to_json())
        return name, ["--param", f"riemann={path}"], finite_gap_sampler(RiemannData.from_json(path.read_text()))
    if name == "peregrine":
        return name, [], peregrine()
    order, amplitude = draw(st.integers(1, 5)), draw(st.sampled_from([0.5, 1.0, 1.5]))
    key, make = ("q", plane_wave) if name == "planewave" else ("a", soliton)
    return name, ["--param", f"order={order}", "--param", f"{key}={amplitude!r}"], make(amplitude, order)


def _sample_file(draw, work):
    name, params, sampler = _sampler_inputs(draw, work)
    (n, length), times = draw(_small_grids), draw(st.lists(_small_times, max_size=sampler.max_order))
    path = work / "f.txt"
    argv = ["sample", "--solution", name, *params, "--grid", f"{n},{length!r}", "--times", *map(repr, times)]
    return [*argv, "--out", str(path)], (OK,), {path: sample_onto_grid(sampler, Grid(n, length), tuple(times))}


def _transform_file(draw, work):
    """The file is written before the verdict, so a failed check (a probe
    too coarse for the residual) writes it too."""
    name, params, sampler = _sampler_inputs(draw, work)
    a, b = draw(st.sampled_from([-1.3, -0.8, 0.6, 1.2])), draw(st.sampled_from([-0.3, 0.0, 0.2]))
    (n, length), t = draw(_small_grids), draw(_small_times)
    path = work / "probe.txt"
    argv = ["transform", f"--a={a!r}", f"--b={b!r}", "--sampler", name, *params, "--probe", f"{n},{length!r}", f"--t={t!r}"]
    want = sample_onto_grid(transform_solution(sampler, SymmetryParams(a, b)), Grid(n, length), (t,), t=t)
    return [*argv, "--out", str(path)], (OK, VERIFY_FAILED), {path: want}


def _snapshot_files(draw, work):
    (n, length), dt, steps = draw(_small_grids), draw(st.sampled_from([1e-3, 5e-4])), draw(st.integers(0, 12))
    f0 = sample_onto_grid(soliton(draw(st.sampled_from([0.5, 1.0]))), Grid(n, length), (), t=draw(st.sampled_from([0.0, 0.25])))
    write_field(f0, work / "init.txt")
    method = draw(st.sampled_from(["auto", "ifrk4"]))
    argv = ["evolve", "--initial", str(work / "init.txt"), "--dt", repr(dt), "--t-end", repr(steps * dt), "--method", method]
    if draw(st.booleans()):
        preset = draw(st.sampled_from(["nls", "mkdv", "hirota(1.0,0.5)"]))
        argv, spec, stride = [*argv, "--preset", preset], parse_preset(preset), None
    else:
        stride = draw(st.integers(1, 5))
        (work / "run.cfg").write_text(f"[flows]\nflow1 = linear(1.0)\nflow2 = linear(-0.5)\n[time]\nsnapshot_stride = {stride}\n")
        argv, spec = [*argv, "--config", str(work / "run.cfg")], parse_config((work / "run.cfg").read_text()).flow_spec()
    traj = evolve_run(f0, spec, steps * dt, dt, method=method, snapshot_stride=stride)
    out = work / "snaps"
    return [*argv, "--out", str(out)], (OK,), {out / f"snap_{i}.txt": f for i, f in enumerate(traj.fields)}


def _last_good_file(draw, work):
    """A flat field that NLS blows up at its second step, or at its first
    (where the last good field is the initial one)."""
    (n, length), method = draw(_small_grids), draw(st.sampled_from(["auto", "ifrk4", "rk4"]))
    g = Grid(n, length)
    amplitude, t = draw(st.sampled_from([28.0, 32.0, 1e60])), draw(st.sampled_from([0.0, 0.5]))
    f0 = Field(g, amplitude * (1.0 + 0.1 * np.cos(2 * np.pi * g.nodes / length)) + 0j, t)
    write_field(f0, work / "init.txt")
    with pytest.raises(Blowup) as info:
        evolve_run(f0, parse_preset("nls"), 0.04, 1e-3, method=method)
    out = work / "run"
    argv = ["evolve", "--preset", "nls", "--initial", str(work / "init.txt"), "--dt", "1e-3", "--t-end", "0.04"]
    return [*argv, "--method", method, "--out", str(out)], (VERIFY_FAILED,), {out / "last_good.txt": info.value.last_good}


def _bits(f: Field) -> tuple:
    """A Field's grid and the bits of its time and samples."""
    return f.grid, np.float64(f.time).tobytes(), f.values.tobytes()


_SAMPLE_FILES = {"sample": _sample_file, "transform": _transform_file, "snapshots": _snapshot_files, "last_good": _last_good_file}


@pytest.mark.parametrize("case", list(_SAMPLE_FILES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_sample_file_reads_back_as_the_library_field(tmp_path_factory, case, data):
    """Each sample file that a command writes (sample --out, transform
    --out, evolve's snapshots, and the last good field of a blow-up) reads
    back through read_field bit for bit as the Field that the library
    builds from the same inputs, and the command writes no other."""
    work = tmp_path_factory.mktemp(case)
    argv, codes, want = _SAMPLE_FILES[case](data.draw, work)
    before = set(work.rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, (argv, err.getvalue())
    assert {p for p in set(work.rglob("*.txt")) - before} == set(want), argv
    for path, f in want.items():
        assert _bits(read_field(path)) == _bits(f), (argv, path.name)


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


def _unknown_key():
    parse_config("[flows]\nbogus = 1\n")


def _theta_zero():
    """Genus 1: theta(1/2 + tau/2 | tau) = 0, so this Z - Delta makes the
    constant denominator Theta(Z - Delta) vanish."""
    tau = 0.2 + 1.3j
    data = RiemannData(
        genus=1,
        B=np.array([[tau]]),
        V=(np.array([1.0 + 0.5j]),),
        K=(1.0, 0.3),
        Z=np.array([0.1 + 0.2j]),
        delta=np.array([0.1 + 0.2j - (0.5 + tau / 2)]),
        rho=1.0,
    )
    finite_gap_sample(data, 0.3, ())


def _non_real_H():
    rakns.hierarchy._scalar_H({2: MatrixDP(0, DiffPoly.var("psi"), 0, 0)}, 1)


# Refusals that were classes of their own, each now raised as the class
# beside it.  Their rows drive the real refusal through main, not an
# injected instance.
_MERGED = {
    "UnknownKey": (_unknown_key, "ConfigError"),
    "ThetaZeroDivision": (_theta_zero, "SolutionError"),
    "NonRealCoefficients": (_non_real_H, "RecursionBroken"),
}


@pytest.mark.parametrize(
    "module, name, expected",
    [
        ("spectral", "SpectralError", 1),
        ("evolve", "Blowup", 1),
        ("evolve", "StabilityViolation", 1),
        ("hierarchy", "RecursionBroken", 1),
        ("hierarchy", "NonRealCoefficients", 1),
        ("solutions", "SolutionError", 2),
        ("solutions", "ThetaZeroDivision", 2),
        ("config", "ConfigError", 2),
        ("config", "UnknownKey", 2),
        ("spectral", "FieldFormatError", 2),
        ("builtins", "ValueError", 2),
        ("builtins", "OSError", 2),
    ],
)
def test_error_class_exit_code(monkeypatch, capsys, module, name, expected):
    """Each side of the exit-code rule, raised where no command test drives
    it through main: a failed check (a class of _FAILED) exits 1, bad input
    (a ValueError or an OSError) exits 2, each with one 'error:' line.  A
    Blowup raised outside evolve exits 1 too."""
    home = importlib.import_module(module if module == "builtins" else f"rakns.{module}")
    if name in _MERGED:
        refuse, merged_into = _MERGED[name]
        with pytest.raises(getattr(home, merged_into)) as info:
            refuse()
        message = str(info.value)
    else:
        message = "injected"

        def refuse():
            raise getattr(home, name)(message)

    monkeypatch.setattr(rakns.hierarchy, "build_flows", lambda K: refuse())
    code, text, err = run(["hierarchy", "show", "--order", "1"], capsys)
    assert code == expected
    assert text == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("module, name, code", [(*row, VERIFY_FAILED) for row in _FAILED])
def test_error_table_names_exception_classes(module, name, code):
    """_exit_code looks each class up inside the error path: a renamed one
    would turn every error of its module into an AttributeError.  None is
    bad input, so the order of the rule's two checks decides nothing."""
    error = getattr(importlib.import_module(f"rakns.{module}"), name, None)
    assert isinstance(error, type) and issubclass(error, Exception)
    assert not issubclass(error, (ValueError, OSError))
    assert _exit_code(error("injected")) == code


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
    code, text, err = run(["identity", "check", "--a", "1.4", "--b", "0.3"], capsys)
    assert code == 1
    assert text.splitlines()[-1] == "FAIL"
    # a failed verdict used to print nothing on stderr
    assert err == "error: identity check failed: phase error nan is not below --tol 1.000e-10\n"


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
    "huge_im_B": lambda d: {**d, "B": [[[d["B"][0][0][0], 1e308], *d["B"][0][1:]], *d["B"][1:]]},
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
        ("huge_im_B", _SAMPLE, "pi Im B must be finite"),
    ],
    ids=[
        "identity_short_K", "sample_short_K", "sample_empty_V", "random_negative_flows",
        "file_negative_flows", "identity_missing_key", "sample_missing_key", "identity_int_B",
        "sample_int_B", "identity_top_list", "sample_top_list", "identity_string_genus",
        "sample_rho_triple", "identity_string_pair", "sample_flat_V", "identity_ragged_B",
        "sample_ragged_B", "identity_short_V_entry", "sample_short_V_entry", "identity_long_Z",
        "sample_long_Z", "sample_huge_im_B",
    ],
)
def test_malformed_riemann_data_is_one_line_exit_2(tmp_path, capsys, edit, argv, message):
    """A K too short for V once ended in an IndexError traceback, exit 1;
    a negative flow count in a message about -1 flow vectors.  A missing
    key, a value of the wrong type or a top level that is no object once
    ended in a KeyError or TypeError traceback, and a triple or a string
    genus was read as if it were well formed.  A ragged B, or a V entry or
    Z of the wrong length, was refused in numpy's words, naming no key.  An
    Im B whose pi Im B overflows printed numpy's overflow warning first."""
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


def test_sample_refuses_times_beyond_the_float_range(tmp_path, capsys):
    """t_1 = 1e308 puts the theta arguments beyond the float range: eight
    RuntimeWarnings were printed before 'field contains NaN/Inf samples'."""
    path = tmp_path / "rd.json"
    path.write_text(random_riemann_data(2, 3, rng=0).to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run([*_SAMPLE, "--riemann", str(path), "--times", "1e308"], capsys)
    assert code == 2
    assert _one_error_line(err) and "psi is not finite at x=-5.0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identity", "check", "--a", "1", "--b", "nan"], "b must be finite"),
        (["identity", "check", "--a", "inf", "--b", "0"], "a must be finite"),
        (["sample", "--solution", "soliton", "--grid", "64,10", "--param", "a=inf"], "amplitude a must be positive and finite"),
        (["sample", "--solution", "planewave", "--grid", "64,10", "--param", "q=inf"], "q must be positive and finite"),
        (["sample", "--solution", "soliton", "--grid", "64,10", "--param", "order=abc"], "--param order must be an integer, got 'abc'"),
        (["sample", "--solution", "soliton", "--grid", "64,10", "--param", "order=2.5"], "--param order must be an integer"),
        (["sample", "--solution", "soliton", "--grid", "64,10", "--param", "order=0"], "order must be in 1..5, got 0"),
        (["sample", "--solution", "planewave", "--grid", "64,10", "--param", "order=6"], "order must be in 1..5, got 6"),
        (["sample", "--solution", "planewave", "--grid", "64,10", "--param", "q=abc"], "--param q must be a number, got 'abc'"),
        (["sample", "--solution", "soliton", "--grid", "64,10", "--param", "a=1,5"], "--param a must be a number, got '1,5'"),
        (["transform", "--a", "1", "--b", "0", "--sampler", "soliton", "--param", "order=x", "--probe", "64,10"],
         "--param order must be an integer"),
    ],
)
def test_non_finite_parameters_are_refused_by_name(capsys, argv, message):
    """A NaN b was reported as 'V must be finite', an infinite amplitude as
    'field contains NaN/Inf samples'; an order, q or a that did not parse
    as Python's bare int() or float() message, and order=0 as 'M must be
    in 1..5', a name the command line does not use."""
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


@pytest.mark.parametrize(
    "argv, key",
    [
        (["evolve", "--preset", "nls", "--initial", "soliton", "--param", "amp=2", "--grid", "64,20",
          "--dt", "1e-3", "--t-end", "2e-3"], "amp"),
        (["sample", "--solution", "planewave", "--param", "a=3", "--grid", "16,10"], "a"),
        (["sample", "--solution", "peregrine", "--param", "order=3", "--grid", "16,10"], "order"),
        (["transform", "--sampler", "planewave", "--param", "a=2", "--a", "1", "--b", "0", "--probe", "64,20"], "a"),
        (["transform", "--sampler", "finitegap", "--param", "q=1", "--a", "1", "--b", "0", "--probe", "64,20"], "q"),
    ],
)
def test_sampler_parameter_nothing_reads_is_refused(capsys, argv, key):
    """A --param key that the named sampler does not take was dropped, and
    the command ran the default sampler with exit 0."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and repr(key) in err


def test_sample_riemann_beside_another_solution_is_refused(tmp_path, capsys):
    """--riemann feeds only the finitegap sampler; a soliton dropped it."""
    path = tmp_path / "rd.json"
    path.write_text(random_riemann_data(1, 2, rng=8).to_json())
    code, out, err = run(["sample", "--solution", "soliton", "--riemann", str(path), "--grid", "16,10"], capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and "'riemann'" in err


def test_evolve_param_beside_a_field_file_is_refused(tmp_path, capsys):
    """A field-file --initial reads no sampler parameter; it was dropped."""
    init = tmp_path / "init.txt"
    assert run(["sample", "--solution", "soliton", "--grid", "64,20", "--out", str(init)], capsys)[0] == 0
    argv = ["evolve", "--preset", "nls", "--initial", str(init), "--param", "a=2", "--dt", "1e-3", "--t-end", "2e-3"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and "'a'" in err


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
    assert err.startswith("error: blow-up:")
    assert np.all(np.isfinite(read_field(out / "last_good.txt").values.view(float)))


_NLS_RUN = ["evolve", "--preset", "nls", "--initial", "soliton", "--grid", "64,20", "--dt", "1e-3"]


def test_evolve_out_holding_an_earlier_run_is_refused(tmp_path, capsys, monkeypatch):
    """A 5-step run into the --out of a 20-step run printed 'wrote 6
    snapshots' and left 21, and verify residual checked the mix with exit
    0.  Such an --out is refused before any step: exit 2, one line naming
    the directory, and the earlier run's files as they were."""
    out = tmp_path / "run"
    out.mkdir()  # an empty directory is taken
    assert run([*_NLS_RUN, "--t-end", "0.02", "--out", str(out)], capsys)[:2] == (0, f"wrote 21 snapshots to {out}\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr("rakns.evolve.evolve_run", lambda *args, **kwargs: pytest.fail("stepped"))
    code, text, err = run([*_NLS_RUN, "--t-end", "5e-3", "--out", str(out)], capsys)
    assert (code, text) == (USAGE, "")
    assert _one_error_line(err) and str(out) in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("name", ["snap_0.txt", "snap_x.txt", "conserved.csv", "last_good.txt"])
def test_evolve_out_holding_one_file_of_a_run_is_refused(tmp_path, capsys, name):
    """Each file name that a run writes, alone in --out, refuses it."""
    (tmp_path / name).write_text("")
    code, text, err = run([*_NLS_RUN, "--t-end", "2e-3", "--out", str(tmp_path)], capsys)
    assert (code, text) == (USAGE, "")
    assert _one_error_line(err) and str(tmp_path) in err
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_memory_error_is_one_line_exit_1(monkeypatch, capsys):
    """A MemoryError, numpy's with its message or a bare one, is a
    breakdown: exit 1 and one 'error:' line, not a traceback; a bare one
    is named by its class."""
    for message, line in (("Unable to allocate 8.00 EiB", "Unable to allocate 8.00 EiB"), ("", "MemoryError")):

        def exhausted(K, message=message):
            raise MemoryError(message)

        monkeypatch.setattr(rakns.hierarchy, "build_flows", exhausted)
        code, text, err = run(["hierarchy", "show", "--order", "1"], capsys)
        assert (code, text, err) == (VERIFY_FAILED, "", f"error: {line}\n")


def test_evolve_overflowing_coefficient_is_one_blowup_line(capsys):
    """gnls(1e308) overflows Lawson's fixed factors before the first step:
    the run exits 1 with its one 'error: blow-up:' line and no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            ["evolve", "--preset", "gnls(1e308)", "--initial", "soliton", "--grid", "64,40",
             "--dt", "2", "--t-end", "2"],
            capsys,
        )
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: blow-up:")


@pytest.mark.parametrize("method", ["ifrk4", "rk4"])
def test_evolve_grid_too_short_for_its_derivatives_names_the_grid(capsys, method):
    """On --grid 16,1e-300, xi^2 overflows: Lawson's run blamed 'the linear
    symbol of flow 1 is not imaginary' (exit 2), and rk4 reported
    dt*max|mu| = inf as a stability violation (exit 1).  The grid is the
    bad input: exit 2, naming its length.  16,1e-150 still runs."""
    argv = ["evolve", "--preset", "nls", "--initial", "soliton", "--dt", "1e-3", "--t-end", "1e-3", "--method", method]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run([*argv, "--grid", "16,1e-300"], capsys)
        assert (code, out) == (USAGE, "")
        assert _one_error_line(err) and "grid length 1e-300" in err
        if method == "ifrk4":
            assert run([*argv, "--grid", "16,1e-150"], capsys)[0] == 0


def test_evolve_zero_dt_is_usage_error(capsys):
    code, _, err = run(
        ["evolve", "--preset", "nls", "--initial", "soliton", "--grid", "256,40",
         "--dt", "0", "--t-end", "0.1"],
        capsys,
    )
    assert code == 2
    assert _one_error_line(err)


@pytest.mark.parametrize("dt, t_end", [("3e-10", "1e-9"), ("1", "1e-20")])
def test_evolve_t_end_not_a_multiple_of_dt_is_usage_error(capsys, dt, t_end):
    """Both exited 0 below the old absolute floor of 1e-9: 'final time
    9e-10' after 3 steps, and 0 steps for t_end = 1e-20."""
    argv = ["evolve", "--preset", "nls", "--initial", "soliton", "--grid", "64,10", "--dt", dt, "--t-end", t_end]
    code, out, err = run(argv, capsys)
    assert (code, out) == (USAGE, "")
    assert _one_error_line(err) and "integer multiple of dt" in err


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


def test_verify_residual_checks_every_triple_of_a_run_from_t_10(tmp_path, capsys):
    """The snapshots of a run from t = 10 step by dt up to an ulp of t, and
    verify residual skipped 31 of the 49 triples without a word: their
    steps did not agree to a relative 1e-12.  It checks every triple."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    init = tmp_path / "init.txt"
    assert run(["sample", "--solution", "soliton", "--grid", "128,40", "--out", str(init)], capsys)[0] == 0
    f = read_field(init)
    write_field(Field(f.grid, f.values, 10.0), init)
    out = tmp_path / "snaps"
    assert run(["evolve", "--config", str(cfg), "--initial", str(init), "--out", str(out)], capsys)[0] == 0
    verify = ["verify", "residual", "--snapshots", str(out), "--config", str(cfg), "--tol", "1e-3"]
    code, text, err = run(verify, capsys)
    assert (code, err) == (0, "")
    assert len(re.findall(r"^t=\S+: residual", text, re.M)) == 49


def test_verify_residual_checks_the_trailing_triple_off_the_cadence(tmp_path, capsys):
    """A 200-step run at stride 3 writes snapshots at steps 0, 3, ..., 198
    and the last one at 200, off the cadence: 68 snapshots, 66 triples.
    verify residual dropped the trailing triple without a word and printed
    65 rows; it checks all 66."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.replace("t_end = 0.05", "t_end = 0.2\nsnapshot_stride = 3"))
    out = tmp_path / "snaps"
    evolve = ["evolve", "--config", str(cfg), "--initial", "soliton", "--out", str(out)]
    assert run(evolve, capsys)[0] == 0
    assert len(list(out.glob("snap_*.txt"))) == 68
    verify = ["verify", "residual", "--snapshots", str(out), "--config", str(cfg), "--tol", "1e-3"]
    code, text, err = run(verify, capsys)
    assert (code, err) == (0, "")
    rows = re.findall(r"^t=(\S+): residual", text, re.M)
    assert len(rows) == 66 and rows[-2:] == ["0.195", "0.198"]


def test_verify_residual_repeated_snapshot_time_fails(tmp_path, capsys):
    """Two snapshots at one time leave no step to difference over: exit 1
    in one line, where the triple was once dropped without a word."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    values = np.ones(64, dtype=complex)
    for i, t in enumerate((0.0, 1e-3, 1e-3)):
        write_field(Field(Grid(64, 10.0), values, t), snaps / f"snap_{i}.txt")
    code, out, err = run(["verify", "residual", "--snapshots", str(snaps), "--config", str(cfg)], capsys)
    assert (code, out) == (VERIFY_FAILED, "")
    assert _one_error_line(err) and "step forward in time" in err


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
        (None, [*_EVOLVE, "--preset", "nls", "--grid", "64,40", "--dt", "1e-3", "--t-end", "1e308"]),
    ],
    ids=[
        "dt_list", "dt_schedule", "length_inf", "length_nan", "n_float", "flow_nan",
        "preset_six_values", "preset_nan", "transform_a_overflow", "transform_b_overflow",
        "genus_0", "genus_negative", "transform_tol_nan", "transform_tol_0",
        "transform_t_nan", "transform_t_inf",
        "verify_residual_tol_negative", "identity_tol_nan", "identity_tol_inf",
        "max_order_not_int", "dt_not_float", "t_end_overflows_step_count",
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


@pytest.mark.parametrize(
    "argv, errno_",
    [
        ([*_EVOLVE, "--preset", "nls", *_PRESET_RUN, "--config", "<dir>"], errno.EISDIR),
        (["evolve", "--initial", "<dir>", "--preset", "nls", *_PRESET_RUN], errno.EISDIR),
        ([*_EVOLVE, "--preset", "nls", *_PRESET_RUN, "--out", "<file>"], errno.EEXIST),
        (["verify", "residual", "--snapshots", "<file>", "--config", "<file>"], errno.ENOTDIR),
        (["sample", "--solution", "finitegap", "--riemann", "<dir>", "--grid", "16,10"], errno.EISDIR),
        (["sample", "--solution", "soliton", "--grid", "16,10", "--out", "<dir>"], errno.EISDIR),
        ([*_TRANSFORM, "--out", "<dir>"], errno.EISDIR),
        ([*_IDENTITY, "--riemann", "<dir>"], errno.EISDIR),
    ],
    ids=[
        "evolve_config_dir", "evolve_initial_dir", "evolve_out_file", "verify_snapshots_file",
        "sample_riemann_dir", "sample_out_dir", "transform_out_dir", "identity_riemann_dir",
    ],
)
def test_unusable_path_is_one_line_exit_2(tmp_path, capsys, argv, errno_):
    """A directory where a file is meant, or a file where a directory is,
    once ended in the OSError's traceback with exit 1."""
    directory, plain = tmp_path / "dir", tmp_path / "run.cfg"
    directory.mkdir()
    plain.write_text(CONFIG)
    paths = {"<dir>": directory, "<file>": plain}
    path = next(paths[t] for t in argv if t in paths)
    code, _, err = run([str(paths.get(t, t)) for t in argv], capsys)
    assert code == USAGE
    assert err == f"error: [Errno {errno_}] {os.strerror(errno_)}: '{path}'\n"


@pytest.mark.parametrize("t, shown", [("1000", "1000"), ("6e10", "6e+10")])
def test_transform_refuses_a_probe_the_solution_has_left(capsys, t, shown):
    """At these t the transformed soliton is 0 at every node of the probe:
    each residual read 0 (worst 2.113e-143 at t = 1e3) and the check passed
    on no field at all."""
    argv = ["transform", "--probe", "128,40", "--sampler", "soliton", "--a", "1.3", "--b", "0.2", f"--t={t}"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (VERIFY_FAILED, "")
    assert err == f"error: transform failed: flow 1 is 0 at every probe node at --t {shown}\n"


def test_transform_of_a_probe_the_solution_fills_is_pinned(capsys):
    argv = ["transform", "--probe", "128,40", "--sampler", "soliton", "--a", "1.3", "--b", "0.2", "--t=0.3"]
    code, out, err = run(argv, capsys)
    assert code == VERIFY_FAILED
    assert out == (
        "flow 1: residual 2.997e-04\n"
        "flow 2: residual 1.505e-02\n"
        "flow 3: residual 5.048e-02\n"
        "flow 4: residual 1.783e+00\n"
        "flow 5: residual 6.862e+00\n"
        "worst residual 6.862e+00\n"
    )
    assert err == "error: transform failed: flow 1 residual 2.997e-04 is not below --tol 1.000e-06\n"


# -- the finite-gap commands as a property ------------------------------------
#
# Bounds, so that the property runs in a few seconds of tier-1: genus <= 3,
# --max-flow <= 5 and data of at most 5 flows, grids of at most 64 points,
# and a fixed, derandomised example budget per test.

_EDGE_NUMBERS = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324", "0", "-0", "1", "-1.5", "0.3", "2.5"]
_numbers = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.floats().map(repr))


@st.composite
def _option(draw, name, values):
    """One option as two tokens, or as --name=value, which argparse takes
    also where the value looks like an option (-inf)."""
    value = draw(values)
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def _identity_argv(draw):
    argv = ["identity", "check", *draw(_option("--a", _numbers)), *draw(_option("--b", _numbers))]
    if draw(st.booleans()):
        argv += draw(_option("--tol", _numbers))
    argv += ["--genus", str(draw(st.integers(-1, 3))), "--max-flow", str(draw(st.integers(-1, 5)))]
    return argv + ["--seed", str(draw(st.integers(0, 2**16)))]


def _mutations(doc: dict):
    """Strategies of one edit each to a to_json document: a key removed, a
    value of the wrong type, a ragged array, a non-finite or huge number."""
    keys = sorted(doc)

    def at_number(value, draw, new):
        # one number of value, replaced by ``new``
        if isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            return [*value[:i], at_number(value[i], draw, new), *value[i + 1 :]]
        return new

    def shortened(value, draw):
        # one list in value, at a drawn depth, an entry shorter
        if isinstance(value, list) and value and isinstance(value[0], list) and draw(st.booleans()):
            i = draw(st.integers(0, len(value) - 1))
            return [*value[:i], shortened(value[i], draw), *value[i + 1 :]]
        return value[:-1] if isinstance(value, list) else value

    @st.composite
    def edit(draw):
        key = draw(st.sampled_from(keys))
        kind = draw(st.sampled_from(["remove", "type", "ragged", "number"]))
        out = dict(doc)
        if kind == "remove":
            del out[key]
        elif kind == "type":
            out[key] = draw(st.sampled_from(["x", 1, 2.5, None, {}, [], [[]], [["1", "0"]]]))
        elif kind == "ragged":
            out[key] = shortened(doc[key], draw)
        else:
            new = draw(st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e150, 0.0]))
            out[key] = at_number(doc[key], draw, new)
        return out

    return edit()


@st.composite
def _riemann_documents(draw):
    data = random_riemann_data(draw(st.integers(1, 3)), draw(st.integers(0, 5)), rng=draw(st.integers(0, 2**16)))
    doc = json.loads(data.to_json())
    return draw(_mutations(doc)) if draw(st.booleans()) else doc


@st.composite
def _sample_argv(draw):
    n = draw(st.one_of(st.sampled_from([16, 32, 64]), st.integers(0, 64)))
    grid = f"{n},{draw(st.sampled_from(['10', '40', '1e-300', '1e300', '0', '5e-324']))}"
    argv = ["sample", "--solution", "finitegap", "--grid", grid]
    if draw(st.booleans()):
        argv += ["--times", *draw(st.lists(st.one_of(_numbers, st.floats(-1, 1).map(repr)), max_size=5))]
    return argv


# The lines that carry a verdict or the number it is made from.
_VERDICT_LINE = re.compile(r"residual|identity error|^(pass|FAIL)$|^flow \d+: ")


def _runs_closed(argv):
    """main(argv) returns 0, 1 or 2; a non-zero return prints exactly one
    stderr line, which starts 'error: ', and a zero return prints none; no
    warning escapes (each is raised as an error); no verdict line reads nan,
    and no run that prints a NaN exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
    verdicts = [line for line in out.getvalue().splitlines() if _VERDICT_LINE.search(line)]
    assert not any("nan" in line.lower() for line in verdicts), (argv, verdicts)
    assert not (code == 0 and "nan" in out.getvalue().lower()), (argv, out.getvalue())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_identity_argv())
@example([*_IDENTITY, "--tol", "5e-324"])
def test_identity_check_fails_closed(argv):
    _runs_closed(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_riemann_documents(), _sample_argv(), st.booleans())
def test_finitegap_commands_fail_closed(tmp_path_factory, doc, argv, identity):
    path = tmp_path_factory.getbasetemp() / "riemann.json"
    path.write_text(json.dumps(doc))
    if identity:
        argv = ["identity", "check", "--a", "1.3", "--b", "-0.2", "--max-flow", "5"]
    _runs_closed([*argv, "--riemann", str(path)])


# -- every other command as a property ----------------------------------------
#
# Bounds, so that each example stays cheap: grids of at most 64 points
# (_MAX_N), evolve runs of at most 20 steps (_MAX_STEPS), hierarchy orders,
# sampler orders and config flows of at most 4 (_MAX_ORDER), and a fixed,
# derandomised example budget per command.  Each input is a usable value
# seven times in eight and an edge token otherwise, so that the runs reach
# the verdicts and the stepper, not only the first refusal; a path's edge
# tokens are a directory and a plain file.  A case is (argv, files): each
# file is written into a fresh directory, which '<dir>' in argv names, and
# which holds the directory snaps and the empty file plain.

_MAX_N, _MAX_STEPS, _MAX_ORDER = 64, 20, 4


def _mostly(good, bad=_numbers):
    """A value of ``good`` (a list or a strategy) seven times in eight, of
    ``bad`` otherwise."""
    good = st.sampled_from(good) if isinstance(good, list) else good
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda usable: good if usable else bad)


def _path(good):
    """A path option's value: ``good`` seven times in eight, otherwise a
    directory or a plain file, each of which exists."""
    return _mostly([good], st.sampled_from(["<dir>/snaps", "<dir>/plain"]))


_orders = _mostly(st.integers(1, _MAX_ORDER).map(str), st.sampled_from(["-1", "0", "nan", "1e308", "2.0", "x", ""]))
_lengths = _mostly(["10", "20", "40"], st.one_of(st.sampled_from(["1e-300", "1e300", "0", "5e-324"]), _numbers))
_grids = _mostly(
    st.builds("{},{}".format, st.sampled_from([16, 32, 64]), _lengths),
    st.one_of(
        st.builds("{},{}".format, st.integers(0, _MAX_N), _lengths),
        st.sampled_from(["64", "64,", ",40", "64;40", "64,40,1", "a,b", "-16,40", "16,nan", "16 , 40", "1_6,40"]),
    ),
)


@st.composite
def _hierarchy_case(draw):
    if draw(st.booleans()):
        argv = ["hierarchy", "show", *draw(_option("--order", _orders))]
        if draw(st.booleans()):
            argv += ["--format", draw(_mostly(["text", "latex", "json"], st.just("xml")))]
    else:
        argv = ["hierarchy", "verify", *draw(_option("--max-order", _orders))]
    return argv, {}


@st.composite
def _sampler_case(draw, names):
    """A sampler name, one of the first three ``names`` seven times in eight,
    and its --param options: an order of at most 4 and an amplitude where
    the sampler takes them, then, one time in eight, a key of any sampler."""
    name = draw(_mostly(names[:3], st.sampled_from(names[3:])))
    params = [f"order={draw(_orders)}"] if name in ("planewave", "plane_wave", "soliton") else []
    if name in ("planewave", "soliton") and draw(st.booleans()):
        params.append(f"{'q' if name == 'planewave' else 'a'}={draw(_mostly(['0.5', '1', '1.5']))}")
    params += draw(_mostly(st.just([]), st.lists(st.sampled_from(["q=1", "a=1", "x=1", "q", "=1", "riemann=x.json"]), max_size=2)))
    return [name, *(token for p in params for token in ("--param", p))]


@st.composite
def _sample_case(draw):
    name, *params = draw(_sampler_case(["planewave", "soliton", "peregrine", "plane_wave"]))
    argv = ["sample", "--solution", name, *params, *draw(_option("--grid", _grids))]
    if draw(st.booleans()):
        argv += ["--times", *draw(st.lists(_mostly(st.floats(-1, 1).map(repr)), max_size=5))]
    if draw(st.booleans()):
        argv += ["--out", draw(_path("<dir>/f.txt"))]
    return argv, {}


@st.composite
def _transform_case(draw):
    sampler = draw(_sampler_case(["planewave", "soliton", "peregrine", "plane_wave", "finitegap", "nosuch"]))
    argv = ["transform", *draw(_option("--a", _mostly(["1", "1.2", "-0.8", "2"])))]
    argv += [*draw(_option("--b", _mostly(["0", "0.1", "-0.3"]))), "--sampler", *sampler]
    argv += draw(_option("--probe", _grids))
    if draw(st.booleans()):
        argv += draw(_option("--t", _mostly(["0", "0.1", "-0.5"])))
    if draw(st.booleans()):
        argv += draw(_option("--tol", _mostly(["1e-6", "1e-3", "1"])))
    if draw(st.booleans()):
        argv += ["--out", draw(_path("<dir>/probe.txt"))]
    return argv, {}


@st.composite
def _time_pair(draw):
    """dt and t_end as text, of at most _MAX_STEPS steps where both are
    finite: t_end a whole number of dt, or an edge token."""
    dt = draw(_mostly(["1e-3", "2e-3", "1e-2"]))
    t_end = draw(_mostly(st.integers(0, _MAX_STEPS).map(lambda k: repr(k * float(dt)))))
    steps = abs(float(t_end) / float(dt)) if float(dt) else 0.0
    if math.isfinite(steps) and steps > _MAX_STEPS:
        t_end = repr(_MAX_STEPS * float(dt))
    return dt, t_end


_SCHEDULES = ["linear(1.0)", "linear({})", "poly(1, {})", "sin({}, 2.0)", "bump(0, {}, 1)"]


@st.composite
def _config_text(draw, dt, t_end):
    """A run config of one or two flows of order <= 4 and the time pair;
    one time in eight, one line deleted, doubled, given an edge value or
    preceded by a junk line.  The dt, t_end and n lines keep their values,
    so that the bounds hold."""
    orders = draw(_mostly(st.lists(st.integers(1, _MAX_ORDER), min_size=1, max_size=2, unique=True), st.just([0])))
    schedules = _mostly(st.builds(str.format, st.sampled_from(_SCHEDULES), _mostly(["0.5", "1", "-2"])), st.sampled_from(["nosuch(1)", "linear(", "1"]))
    lines = ["[flows]", *(f"flow{k} = {draw(schedules)}" for k in orders)]
    lines += ["[grid]", f"n = {draw(st.sampled_from([16, 32, 64]))}", f"length = {draw(_lengths)}"]
    lines += ["[time]", f"dt = {dt}", f"t_end = {t_end}", f"method = {draw(_mostly(['auto', 'rk4', 'ifrk4'], st.just('euler')))}"]
    if draw(st.booleans()):
        lines.append(f"snapshot_stride = {draw(_mostly(['1', '2', '5'], st.one_of(st.just('-1'), _numbers)))}")
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(_mostly(st.just("none"), st.sampled_from(["delete", "double", "value", "junk"])))
    if edit == "delete" and not lines[i].startswith("n "):
        del lines[i]
    elif edit == "double":
        lines.insert(i, lines[i])
    elif edit == "value" and "=" in lines[i] and not lines[i].startswith(("dt ", "t_end ", "n ")):
        lines[i] = lines[i].split("=")[0] + "= " + draw(_numbers)
    elif edit == "junk":
        lines.insert(i, draw(st.sampled_from(["[nosuch]", "key = 1", "= 1", "flow1", "[grid"])))
    return "\n".join(lines) + "\n"


def _field_lines(n, length, time, amplitude=1.0):
    """The lines of a field file whose values turn at unit rate in time."""
    phase = float(time) if math.isfinite(float(time)) else 0.0
    values = amplitude * np.exp(2j * np.pi * np.arange(n) / n + 1j * phase)
    return [FIELD_MAGIC, f"n={n} L={length} t={time}", *format_samples(values).splitlines()]


@st.composite
def _field_text(draw, n=None, length=_lengths, time="0"):
    """A field file of at most 64 points, one line of it damaged one time
    in eight."""
    n = draw(st.sampled_from([16, 32, 64])) if n is None else n
    amplitude = draw(_mostly([1.0, 0.5], st.sampled_from([0.0, 1e-300, 1e150, 1e308])))
    lines = _field_lines(n, draw(length), time, amplitude)
    if draw(_mostly(st.just(False), st.just(True))):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(["", "0 nan 0", "0 1", f"{n} 0 0", "1 1e400 0", "n=16 L=10"]))
    return "\n".join(lines) + "\n"


_PRESETS = ["nls", "mkdv", "lpd", "hirota({},{})", "gnls({})", "hnls4({},1,1,{})"]


@st.composite
def _evolve_case(draw):
    dt, t_end = draw(_time_pair())
    argv, files = ["evolve"], {}
    times = [("--dt", dt), ("--t-end", t_end)]
    if draw(st.booleans()):
        files["run.cfg"] = draw(_config_text(dt, t_end))
        argv += ["--config", draw(_path("<dir>/run.cfg"))]
        times = times[: draw(st.integers(0, 2))]
    if "run.cfg" not in files or draw(st.booleans()):
        preset = draw(_mostly(_PRESETS, st.sampled_from(["hnls5(1,1,1,1,1,1)", "nosuch", "nls(", "hirota(alpha=1,alpha=2)"])))
        values = _mostly(["1", "0.5", "-0.2"])
        argv += draw(_option("--preset", st.just(preset.format(*(draw(values) for _ in range(preset.count("{}")))))))
    for name, value in times:
        argv += draw(_option(name, st.just(value)))
    if draw(st.booleans()):
        files["init.txt"] = draw(_field_text(time=draw(_mostly(["0", "0.5"]))))
        argv += ["--initial", draw(_path("<dir>/init.txt")), *draw(_mostly(st.just([]), st.just(["--param", "a=1"])))]
    else:
        argv += ["--initial", *draw(_sampler_case(["soliton", "planewave", "peregrine", "finitegap", "nosuch"]))]
    if "run.cfg" not in files or draw(st.booleans()):
        argv += draw(_option("--grid", _grids))
    if draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["auto", "rk4", "ifrk4"]))]
    if draw(st.booleans()):
        argv += ["--out", draw(_path("<dir>/run"))]
    return argv, files


@st.composite
def _verify_case(draw):
    """Up to five snapshots, t = t0 + i h, and a config to verify them against."""
    dt, t_end = draw(_time_pair())
    files = {"run.cfg": draw(_config_text(dt, t_end))}
    n, length = draw(st.sampled_from([16, 32, 64])), st.just(draw(_lengths))
    t0, h = float(draw(_mostly(["0", "1"]))), float(draw(_mostly(["1e-3", "0.1"])))
    for i in range(draw(_mostly(st.integers(3, 5), st.integers(0, 2)))):
        files[f"snaps/snap_{i}.txt"] = draw(_field_text(n, length, repr(t0 + i * h)))
    argv = ["verify", "residual", "--snapshots", draw(_path("<dir>/snaps")), "--config", draw(_path("<dir>/run.cfg"))]
    if draw(st.booleans()):
        argv += draw(_option("--tol", _mostly(["1e-4", "1", "1e3"])))
    return argv, files


def _case_runs_closed(tmp_path_factory, case):
    argv, files = case
    home = tmp_path_factory.getbasetemp() / "case"
    shutil.rmtree(home, ignore_errors=True)
    (home / "snaps").mkdir(parents=True)
    (home / "plain").write_text("")
    for name, text in files.items():
        (home / name).write_text(text)
    _runs_closed([token.replace("<dir>", str(home)) for token in argv])


# Each command's test also runs the defects that hand-picked cases found
# before this property existed, so that a revert of a fix fails it.
_BUDGET = settings(max_examples=150, deadline=None, derandomize=True)


@_BUDGET
@given(_hierarchy_case())
def test_hierarchy_commands_fail_closed(tmp_path_factory, case):
    _case_runs_closed(tmp_path_factory, case)


@_BUDGET
@given(_sample_case())
@example((["sample", "--solution", "soliton", "--grid", "64,5e-324"], {}))
@example((["sample", "--solution", "planewave", "--param", "q=1e308", "--grid", "16,10"], {}))
@example((["sample", "--solution", "soliton", "--param", "a=1.5", "--grid", "16,10", "--times", "1e308"], {}))
def test_sample_fails_closed(tmp_path_factory, case):
    _case_runs_closed(tmp_path_factory, case)


@_BUDGET
@given(_transform_case())
@example(([*_TRANSFORM[:-1], "64,1e-300", "--a=1", "--b=0", "--t", "0"], {}))
@example((["transform", "--a", "1", "--b", "1e308", "--sampler", "peregrine", "--probe", "16,10"], {}))
@example(([*_TRANSFORM, "--out", "<dir>/snaps"], {}))
def test_transform_fails_closed(tmp_path_factory, case):
    _case_runs_closed(tmp_path_factory, case)


@_BUDGET
@given(_evolve_case())
@example(([*_EVOLVE, "--preset", "nls", "--grid", "64,40", "--dt", "1e-3", "--t-end", "1e308"], {}))
@example(([*_EVOLVE, "--preset", "gnls(1e308)", "--grid", "64,40", "--dt", "2", "--t-end", "2"], {}))
@example(([*_EVOLVE, "--preset", "nls", "--grid", "16,5e-324", "--dt", "1e-3", "--t-end", "0"], {}))
def test_evolve_fails_closed(tmp_path_factory, case):
    _case_runs_closed(tmp_path_factory, case)


@_BUDGET
@given(_verify_case())
@example((
    ["verify", "residual", "--snapshots", "<dir>/snaps", "--config", "<dir>/run.cfg"],
    {"run.cfg": CONFIG, **{f"snaps/snap_{i}.txt": "\n".join(_field_lines(64, "1e-300", i * 1e-3)) + "\n" for i in range(3)}},
))
def test_verify_residual_fails_closed(tmp_path_factory, case):
    _case_runs_closed(tmp_path_factory, case)
