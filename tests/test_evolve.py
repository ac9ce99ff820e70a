"""Time integration: schedules, stability guard, integrating-factor RK4,
conservation, reversibility, and convergence order."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ifrk4_reference

from rakns.evolve import (
    Blowup,
    Bump,
    FlowSpec,
    Linear,
    Poly,
    Sinusoid,
    RK4_IMAG_STABILITY,
    StabilityViolation,
    evolve_run,
    linear_symbol,
    step,
    symbol_columns,
)
from rakns.hierarchy import default_flow_table
from rakns.solutions import plane_wave, soliton
from rakns.spectral import Field, Grid, conserved_integral, sample_onto_grid


NLS = FlowSpec([(1, Linear(1.0))])
HNLS5 = FlowSpec.from_coeffs((1.0, -0.4, -0.1, 0.05, 0.02))


def _soliton_field(grid=None, a=1.0, images=1):
    grid = grid or Grid(256, 40.0)
    return sample_onto_grid(soliton(a), grid, (), images=images)


# -- schedules ---------------------------------------------------------------


@pytest.mark.parametrize(
    "sched",
    [
        Linear(0.7, -0.2),
        Poly([0.1, -0.3, 0.05, 1.2]),
        Sinusoid(0.8, 2.0, 0.3),
        Bump(0.5, 2.5, 1.3),
    ],
)
def test_schedule_derivative_consistent(sched):
    """alpha' matches a central difference of alpha away from kinks."""
    for t in (0.7, 1.1, 1.9):
        h = 1e-6
        fd = (sched.value(t + h) - sched.value(t - h)) / (2 * h)
        assert sched.derivative(t) == pytest.approx(fd, abs=1e-6, rel=1e-6)


def test_bump_compact_support():
    b = Bump(1.0, 2.0, 3.0)
    for t in (-5.0, 0.999999, 2.0000001, 10.0):
        assert b.value(t) == 0.0
        assert b.derivative(t) == 0.0
    assert b.value(1.5) == pytest.approx(3.0)  # exp(4 - 4) at the center


def test_bump_requires_ordered_support():
    with pytest.raises(ValueError):
        Bump(2.0, 1.0, 1.0)


def test_flowspec_validation():
    with pytest.raises(ValueError):
        FlowSpec([(1, Linear(1.0)), (1, Linear(2.0))])
    with pytest.raises(ValueError):
        FlowSpec([(0, Linear(1.0))])
    assert FlowSpec.from_coeffs([1.0, 0.0, -2.0]).entries[1][0] == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: Linear(math.nan),
        lambda: Linear(1.0, math.inf),
        lambda: Poly([1.0, math.nan]),
        lambda: Poly([]),
        lambda: Sinusoid(1.0, math.inf),
        lambda: Sinusoid(1.0, 1.0, -math.inf),
        lambda: Bump(0.0, math.nan, 1.0),
        lambda: Bump(0.0, 1.0, math.inf),
    ],
    ids=["linear_nan", "linear_inf", "poly_nan", "poly_empty", "sin_inf", "sin_phase",
         "bump_nan", "bump_inf"],
)
def test_schedules_refuse_non_finite_parameters(make):
    with pytest.raises(ValueError):
        make()


def test_linear_symbol_is_imaginary():
    spec = FlowSpec.from_coeffs([1.0, -0.5, 2.0, 0.3, -1.0])
    g = Grid(64, 10.0)
    mu = linear_symbol(spec, 0.0, symbol_columns(spec, g))
    assert np.max(np.abs(mu.real)) < 1e-14


# -- stepping ----------------------------------------------------------------


def test_stability_guard_triggers():
    g = Grid(1024, 10.0)  # dt*xi_max^2 far over the RK4 bound
    f = _soliton_field(g)
    with pytest.raises(StabilityViolation):
        step(f, NLS, 0.1, method="rk4")


def test_stability_guard_threshold_is_linear_symbols():
    """The guard weights symbol columns formed once per stepper and raises
    just above 2.8 / max|mu(xi, t)| and not just below, at a t where every
    schedule is live."""
    spec = FlowSpec([(1, Sinusoid(1.0, 2.0)), (2, Sinusoid(0.3, 3.0)), (3, Sinusoid(0.05, 1.0))])
    f = sample_onto_grid(soliton(1.0), Grid(256, 40.0), (), t=0.7)
    dt = RK4_IMAG_STABILITY / np.max(np.abs(linear_symbol(spec, 0.7, symbol_columns(spec, f.grid))))
    step(f, spec, dt * (1 - 1e-12), method="rk4")
    with pytest.raises(StabilityViolation):
        step(f, spec, dt * (1 + 1e-12), method="rk4")


def test_rk4_and_ifrk4_agree_small_dt():
    f = _soliton_field()
    a = step(f, NLS, 1e-4, method="rk4")
    b = step(f, NLS, 1e-4, method="ifrk4")
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_rk4_and_ifrk4_agree_with_nyquist_content():
    """Both steppers use the one discrete operator: the Nyquist mode of an
    odd-order derivative is zero in IF-RK4's linear factor as in the RHS."""
    g = Grid(64, 10.0)
    nyquist = 0.01 * (-1.0) ** np.arange(g.n)
    f = Field(g, _soliton_field(g).values + nyquist)
    spec = FlowSpec([(2, Linear(1.0))])
    a = step(f, spec, 1e-5, method="rk4")
    b = step(f, spec, 1e-5, method="ifrk4")
    assert np.max(np.abs(a.values - b.values)) < 1e-10


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_all_zero_mix_leaves_the_field(method):
    """hirota(0,0) is a spec with no flows: an empty symbol, no motion."""
    f = _soliton_field(Grid(64, 10.0))
    out = step(f, FlowSpec.from_coeffs([0.0, 0.0]), 1e-3, method=method)
    assert np.max(np.abs(out.values - f.values)) < 1e-15


def test_ifrk4_requires_constant_coefficients():
    f = _soliton_field()
    spec = FlowSpec([(1, Sinusoid(1.0, 1.0))])
    with pytest.raises(Exception):
        step(f, spec, 1e-3, method="ifrk4")


def test_plane_wave_phase_rotation():
    """Constant field: one ifrk4 step reproduces q e^{2iq^2 dt} up to the
    RK4 local error of the (constant-in-space) nonlinear rotation."""
    g = Grid(64, 10.0)
    q = 1.3
    f = Field(g, np.full(64, q, dtype=complex))
    out = step(f, NLS, 1e-2, method="ifrk4")
    expected = q * np.exp(2j * q * q * 1e-2)
    assert np.max(np.abs(out.values - expected)) < (2 * q * q * 1e-2) ** 5


def test_blowup_carries_last_good():
    g = Grid(64, 10.0)
    f = Field(g, np.full(64, 1e8, dtype=complex))  # absurd amplitude
    spec = FlowSpec([(1, Linear(1.0))])
    with pytest.raises(Blowup) as exc_info:
        current = f
        for _ in range(50):
            current = step(current, spec, 1e-4, method="ifrk4")
    assert exc_info.value.last_good is not None


def test_blowup_raises_no_runtime_warning():
    """step() keeps the overflow that comes before a Blowup quiet, as
    evolve_run does: the caller sees the Blowup and nothing else."""
    g = Grid(64, 10.0)
    current = Field(g, np.full(64, 1e8, dtype=complex))
    spec = FlowSpec([(1, Linear(1.0))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Blowup) as exc_info:
            for _ in range(50):
                current = step(current, spec, 1e-4, method="ifrk4")
    assert exc_info.value.last_good is current


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_stepped_field_is_read_only(method):
    """A stepped Field keeps the stepper's own array, read-only like any
    Field's samples."""
    f = _soliton_field()
    out = step(f, NLS, 1e-4, method=method)
    assert (out.grid, out.time, out.values.shape, out.values.dtype) == (f.grid, 1e-4, (256,), complex)
    with pytest.raises(ValueError):
        out.values[0] = 0.0


@pytest.mark.parametrize(
    "spec, method",
    [
        (HNLS5, "ifrk4"),
        (FlowSpec([(1, Sinusoid(1.0, 2.0)), (2, Sinusoid(0.3, 3.0)), (3, Sinusoid(0.05, 1.0))]), "rk4"),
    ],
    ids=["hnls5", "sinusoid"],
)
def test_conserved_rows_match_three_integrals(spec, method):
    """Each recorded row (c1, c2, c3), made from one plan of the three
    densities, is the three conserved_integral calls on that snapshot."""
    g = Grid(128, 40.0)
    boost = np.exp(2j * np.pi * 3 * g.nodes / g.length)  # c2 of a still soliton is 0
    f0 = Field(g, _soliton_field(g).values * boost)
    traj = evolve_run(f0, spec, 2e-3, 2.5e-4, method=method, snapshot_stride=2)
    table = default_flow_table(5)
    for f, row in zip(traj.fields, traj.conserved, strict=True):
        direct = [conserved_integral(f, table, k) for k in (1, 2, 3)]
        assert all(type(c) is complex for c in row)
        assert all(abs(c - d) <= 1e-14 * abs(d) for c, d in zip(row, direct))


def test_ifrk4_hnls5_step_makes_ten_ffts(monkeypatch):
    """One IF-RK4 step of the hnls5 mix at n = 256: the forward FFT of psi,
    per stage one batched inverse FFT to psi and its jets and one forward
    FFT of the remainder, and the inverse FFT of the result.  (Stages that
    went back to samples made 17.)"""
    f = _soliton_field()
    calls = Counter()
    for name in ("fft", "ifft"):

        def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    step(f, HNLS5, 2.5e-5, method="ifrk4")
    assert calls == {"fft": 5, "ifft": 5}


def _relative_gap(spec, f, dt, steps):
    got = evolve_run(f, spec, steps * dt, dt, method="ifrk4", snapshot_stride=steps).final.values
    table = default_flow_table(max(spec.max_order, 1))
    ref = ifrk4_reference(table, spec, f, dt, steps)
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def test_ifrk4_hnls5_matches_sample_space_stages():
    """Stages run from psi-hat agree with stages that go back to samples."""
    assert _relative_gap(HNLS5, _soliton_field(), 2.5e-5, 20) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.integers(1, 5), st.floats(-1.0, 1.0), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_ifrk4_constant_specs_match_sample_space_stages(slopes, seed):
    """Random constant mixes of H_1..H_5 on random smooth fields."""
    spec = FlowSpec([(k, Linear(b)) for k, b in sorted(slopes.items())])
    g = Grid(64, 20.0)
    rng = np.random.default_rng(seed)
    amps = 0.1 * ([1, 1j] @ rng.uniform(-1, 1, (2, 7)))  # modes -3..3
    values = np.exp(2j * np.pi / g.length * np.outer(g.nodes, np.arange(-3, 4))) @ amps
    assert _relative_gap(spec, Field(g, values), 2e-5, 20) <= 1e-13


# -- runs --------------------------------------------------------------------


def test_soliton_evolution_matches_sampler(table5):
    f0 = _soliton_field()
    traj = evolve_run(f0, NLS, 0.5, 1e-3, method="ifrk4")
    ref = sample_onto_grid(soliton(1.0), f0.grid, (0.5,), t=0.5, images=1)
    assert np.max(np.abs(traj.final.values - ref.values)) < 1e-7


def test_mass_conservation(table5):
    f0 = _soliton_field()
    traj = evolve_run(f0, NLS, 0.5, 1e-3, method="ifrk4")
    c0 = abs(traj.conserved[0][0])
    cT = abs(traj.conserved[-1][0])
    assert abs(cT - c0) / c0 < 1e-10


def test_time_reversal():
    """Integrate forward then backward with the reversed flow sign."""
    f0 = _soliton_field()
    fwd = evolve_run(f0, NLS, 0.25, 1e-3, method="ifrk4").final
    back_spec = FlowSpec([(1, Linear(-1.0))])
    f1 = Field(fwd.grid, fwd.values, 0.0)
    back = evolve_run(f1, back_spec, 0.25, 1e-3, method="ifrk4").final
    assert np.max(np.abs(back.values - f0.values)) < 1e-9


def test_fourth_order_convergence():
    f0 = _soliton_field(Grid(128, 40.0))
    ref = evolve_run(f0, NLS, 0.1, 1e-4, method="rk4").final.values
    errs = []
    for dt in (4e-3, 2e-3):
        out = evolve_run(f0, NLS, 0.1, dt, method="rk4").final.values
        errs.append(np.max(np.abs(out - ref)))
    ratio = errs[0] / errs[1]
    assert 13.0 < ratio < 19.0


def test_t_end_must_divide():
    f0 = _soliton_field()
    with pytest.raises(ValueError):
        evolve_run(f0, NLS, 0.1, 3e-3)


def test_run_validates_step_and_span():
    f0 = _soliton_field()
    for dt in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            evolve_run(f0, NLS, 0.1, dt)
    with pytest.raises(ValueError):
        evolve_run(f0, NLS, -0.1, 1e-3)
    with pytest.raises(ValueError):
        evolve_run(f0, NLS, 0.1, 1e-3, snapshot_stride=0)


def test_snapshot_cadence():
    f0 = _soliton_field()
    traj = evolve_run(f0, NLS, 0.1, 1e-2, snapshot_stride=2)
    assert traj.times == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08, 0.1])


def test_trajectory_write(tmp_path, table5):
    f0 = _soliton_field()
    traj = evolve_run(f0, NLS, 0.02, 1e-2, snapshot_stride=1)
    out = tmp_path / "run"
    traj.write(out)
    assert (out / "snap_0.txt").exists()
    assert (out / "snap_2.txt").exists()
    assert "re_c1" in (out / "conserved.csv").read_text().splitlines()[0]


# -- deformed (time-dependent) coefficients ----------------------------------


def test_deformed_nls_matches_argument_substitution():
    """alpha_1(t) = sin t: the run from a soliton must land on the sampler
    evaluated at t_1 = sin(t)."""
    spec = FlowSpec([(1, Sinusoid(1.0, 1.0))])
    f0 = _soliton_field()
    t_end = 1.0
    traj = evolve_run(f0, spec, t_end, 1e-3, method="rk4")
    ref = sample_onto_grid(
        soliton(1.0), f0.grid, (math.sin(t_end),), t=t_end, images=1
    )
    assert np.max(np.abs(traj.final.values - ref.values)) < 1e-5


def test_disjoint_bumps_compose_sequentially():
    """Two bumps with disjoint supports on flows 1 and 2: the mixed run must
    equal the piecewise pure-flow runs, and since each alpha returns to zero
    the final state must coincide with the initial data."""
    b1 = Bump(0.1, 0.9, 0.3)
    b2 = Bump(1.1, 1.9, 0.2)
    spec = FlowSpec([(1, b1), (2, b2)])
    f0 = _soliton_field()
    dt = 2.5e-4  # flow-2 dispersion needs the smaller step for rk4 stability
    mixed = evolve_run(f0, spec, 2.0, dt, method="rk4").final

    first = evolve_run(f0, FlowSpec([(1, b1)]), 1.0, dt, method="rk4").final
    second = evolve_run(first, FlowSpec([(2, b2)]), 1.0, dt, method="rk4").final

    assert np.max(np.abs(mixed.values - second.values)) < 1e-6
    # alpha_1(2) = alpha_2(2) = 0: the deformation closes back on itself
    assert np.max(np.abs(mixed.values - f0.values)) < 1e-5


def test_bump_mid_support_matches_sampler():
    """Inside the bump the run sits at the sampler argument t_1 = alpha(t)."""
    b1 = Bump(0.1, 0.9, 0.3)
    f0 = _soliton_field()
    traj = evolve_run(f0, FlowSpec([(1, b1)]), 0.5, 1e-3, method="rk4")
    ref = sample_onto_grid(soliton(1.0), f0.grid, (b1.value(0.5),), t=0.5, images=1)
    assert np.max(np.abs(traj.final.values - ref.values)) < 1e-6
