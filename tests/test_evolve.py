"""Time integration: schedules, stability guard, Lawson integrating-factor RK4,
conservation, reversibility, and convergence order."""

import math
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import conserved_integral_reference, ifrk4_reference, linear_symbol_reference, rhs_terms

from rakns import evolve as evolve_module
from rakns import spectral
from rakns.evolve import (
    Blowup,
    Bump,
    EvolveError,
    FlowSpec,
    Linear,
    Poly,
    Sinusoid,
    RK4_IMAG_STABILITY,
    StabilityViolation,
    _stepper,
    evolve_run,
    step,
)
from rakns.hierarchy import conserved_density, default_flow_table
from rakns.solutions import plane_wave, soliton
from rakns.spectral import Field, Grid, _BoundPlan, conserved_integral, flow_plan, residual, sample_onto_grid


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


def test_bump_derivative_where_its_value_underflows():
    """Just inside the support, (s(1-s))^2 underflows to 0 while alpha is
    already 0; alpha' is 0 there, not a ZeroDivisionError."""
    b = Bump(-1e-300, 1.0, 1.0)
    assert (b.value(0.0), b.derivative(0.0)) == (0.0, 0.0)
    assert b.derivative(0.5) == 0.0 and b.derivative(0.25) > 0.0


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


def test_linear_symbol_is_imaginary(table5):
    """The symbol read off the flow plan is sum_k i^k b_k (i xi)^(k+1),
    purely imaginary since i^k (i xi)^(k+1) = i^(2k+1) xi^(k+1)."""
    spec = FlowSpec.from_coeffs([1.0, -0.5, 2.0, 0.3, -1.0])
    g = Grid(64, 10.0)
    mu = _BoundPlan(flow_plan(table5, spec), g).symbol(spec.weights(0.0))
    assert np.max(np.abs(mu.real)) < 1e-14
    assert np.array_equal(mu, linear_symbol_reference(spec, g, 0.0))


# -- stepping ----------------------------------------------------------------


def test_stability_guard_triggers():
    g = Grid(1024, 10.0)  # dt*xi_max^2 far over the RK4 bound
    f = _soliton_field(g)
    with pytest.raises(StabilityViolation):
        step(f, NLS, 0.1, method="rk4")


def test_stability_guard_threshold_is_linear_symbols():
    """The guard reads the linear symbol off the flow plan and raises just
    above 2.8 / max|mu(xi, t)| and not just below, at a t where every
    schedule is live."""
    spec = FlowSpec([(1, Sinusoid(1.0, 2.0)), (2, Sinusoid(0.3, 3.0)), (3, Sinusoid(0.05, 1.0))])
    f = sample_onto_grid(soliton(1.0), Grid(256, 40.0), (), t=0.7)
    dt = RK4_IMAG_STABILITY / np.max(np.abs(linear_symbol_reference(spec, f.grid, 0.7)))
    step(f, spec, dt * (1 - 1e-12), method="rk4")
    with pytest.raises(StabilityViolation):
        step(f, spec, dt * (1 + 1e-12), method="rk4")


def test_step_defaults_to_the_method_of_evolve_run():
    """step() once defaulted to rk4, so the hnls5 step that evolve_run
    takes raised StabilityViolation (dt max|mu| = 35); both now default to
    auto, which is ifrk4 for every schedule, deformed ones included."""
    f = _soliton_field()
    out = step(f, HNLS5, 2.5e-5)
    assert np.array_equal(out.values, step(f, HNLS5, 2.5e-5, method="ifrk4").values)
    assert np.array_equal(out.values, evolve_run(f, HNLS5, 2.5e-5, 2.5e-5).final.values)
    spec = FlowSpec([(1, Sinusoid(1.0, 2.0))])
    assert np.array_equal(step(f, spec, 1e-4).values, step(f, spec, 1e-4, method="ifrk4").values)


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


def test_ifrk4_agrees_with_rk4_on_deformed_schedules():
    """Lawson's factor exp(int mu dt) makes ifrk4 run any schedule: on
    flow 1 with Poly, Sinusoid and Bump schedules it lands where rk4 does
    after 500 steps of dt = 1e-4, the bump at its peak."""
    f = _soliton_field()
    for sched in (Poly([0.1, -0.3, 0.05, 1.2]), Sinusoid(1.0, 2.0), Bump(0.0, 0.1, 0.3)):
        spec = FlowSpec([(1, sched)])
        a = evolve_run(f, spec, 0.05, 1e-4, method="rk4").final
        b = evolve_run(f, spec, 0.05, 1e-4, method="ifrk4").final
        assert np.max(np.abs(a.values - b.values)) < 5e-12, sched


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
def test_run_blowup_keeps_last_good_state(method):
    """A run that blows up mid-run, between snapshots, hands back the
    finite field of its last completed step, stamped with that step's
    time: the final field of the same run stopped one step earlier."""
    g = Grid(64, 10.0)
    f0 = Field(g, 24.0 * (1.0 + 0.1 * np.cos(2 * np.pi * g.nodes / g.length)) + 0j, 0.5)
    dt = 1e-3
    with pytest.raises(Blowup) as exc_info:
        evolve_run(f0, NLS, 40 * dt, dt, method=method, snapshot_stride=3)
    good = exc_info.value.last_good
    assert isinstance(good, Field) and good.grid == g
    assert np.all(np.isfinite(good.values.view(float)))
    steps = round((good.time - f0.time) / dt)
    assert 1 < steps < 40 and steps % 3 and good.time == f0.time + steps * dt
    ref = evolve_run(f0, NLS, steps * dt, dt, method=method, snapshot_stride=3).final
    assert ref.time == good.time
    assert np.max(np.abs(good.values - ref.values)) <= 1e-15 * np.max(np.abs(ref.values))


@pytest.mark.parametrize("method", ["rk4", "ifrk4"])
def test_stepped_field_is_read_only(method):
    """A stepped Field's samples are read-only, like any Field's."""
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
    densities, is the grid integral of each density on that snapshot,
    summed monomial by monomial from the density itself."""
    g = Grid(128, 40.0)
    boost = np.exp(2j * np.pi * 3 * g.nodes / g.length)  # c2 of a still soliton is 0
    f0 = Field(g, _soliton_field(g).values * boost)
    traj = evolve_run(f0, spec, 2e-3, 2.5e-4, method=method, snapshot_stride=2)
    table = default_flow_table(5)
    for f, row in zip(traj.fields, traj.conserved, strict=True):
        assert all(type(c) is complex for c in row)
        for c, k in zip(row, (1, 2, 3), strict=True):
            density = conserved_density(table, k)
            scale = sum(np.sum(np.abs(t)) for t in rhs_terms([density], f.values, g)) * g.dx
            assert abs(c - conserved_integral_reference(density, f)) <= 1e-14 * scale


@pytest.mark.parametrize(
    "spec, method",
    [
        (HNLS5, "ifrk4"),
        (FlowSpec([(1, Sinusoid(1.0, 2.0)), (2, Sinusoid(0.3, 3.0)), (3, Sinusoid(0.05, 1.0))]), "rk4"),
    ],
    ids=["hnls5", "sinusoid"],
)
def test_conserved_rows_agree_with_conserved_integral(spec, method):
    """The records' plan of the three densities, bound once per run, and
    conserved_integral's one-density plan give each snapshot's c1-c3 to
    rounding; they are different programs, so not bit for bit."""
    g = Grid(128, 40.0)
    boost = np.exp(2j * np.pi * 3 * g.nodes / g.length)  # c2 of a still soliton is 0
    f0 = Field(g, _soliton_field(g).values * boost)
    traj = evolve_run(f0, spec, 2e-3, 2.5e-4, method=method, snapshot_stride=2)
    table = default_flow_table(5)
    for f, row in zip(traj.fields, traj.conserved, strict=True):
        for c, k in zip(row, (1, 2, 3), strict=True):
            expected = conserved_integral(f, table, k)
            assert abs(c - expected) <= 1e-14 * abs(expected)


def test_run_binds_the_flow_plan_and_the_density_plan_once(monkeypatch):
    """However many snapshots a run records, it binds two plans to its
    grid: the flow plan that steps and the plan of the c1-c3 densities."""
    bound = []

    def counted(self, plan, grid, _original=spectral._BoundPlan.__init__):
        bound.append(plan)
        _original(self, plan, grid)

    monkeypatch.setattr(spectral._BoundPlan, "__init__", counted)
    traj = evolve_run(_soliton_field(), HNLS5, 8 * 2.5e-5, 2.5e-5, method="ifrk4", snapshot_stride=1)
    assert len(traj.fields) == 9
    table = default_flow_table(5)
    assert bound == [flow_plan(table, HNLS5), spectral._cached_plan(*(conserved_density(table, k) for k in (1, 2, 3)))]


@pytest.mark.parametrize("method", ["ifrk4", "rk4"])
def test_run_reads_the_linear_symbol_once_per_flow(monkeypatch, method):
    """Both methods read the linear symbol off the bound flow plan once per
    flow entry per run, as its unit phases, and never per stage: rk4 once
    asked the plan for mu five times a step."""
    read = []

    def counted(self, weights, _original=spectral._BoundPlan.symbol):
        read.append(self.plan)
        return _original(self, weights)

    monkeypatch.setattr(spectral._BoundPlan, "symbol", counted)
    spec = FlowSpec([(1, Sinusoid(1.0, 2.0)), (2, Sinusoid(0.3, 3.0)), (3, Linear(0.05))])
    evolve_run(_soliton_field(), spec, 8 * 1e-4, 1e-4, method=method, snapshot_stride=4)
    assert read == [flow_plan(default_flow_table(3), spec)] * 3


def _counted_ffts(monkeypatch) -> Counter:
    """Counts of np.fft.fft and ifft calls by (name, input shape)."""
    calls = Counter()
    for name in ("fft", "ifft"):

        def counted(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls[_name, np.shape(a)] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_ifrk4_hnls5_step_makes_ten_ffts(monkeypatch):
    """One IF-RK4 step of the hnls5 mix at n = 256: the forward FFT of psi,
    per stage one batched inverse FFT to psi and its jets and one forward
    FFT of the nonlinear part, and the inverse FFT of the result.  (Stages
    that went back to samples made 17.)  A stage transforms psi and the
    jets of orders 1-4 that the nonlinear terms read, not the linear-only
    jets 5 and 6 of the flow plan: shape (5, 256), not (7, 256)."""
    f = _soliton_field()
    calls = _counted_ffts(monkeypatch)
    step(f, HNLS5, 2.5e-5, method="ifrk4")
    assert calls == {("fft", (256,)): 5, ("ifft", (5, 256)): 4, ("ifft", (256,)): 1}


def test_ifrk4_hnls5_run_stays_in_fourier_space(monkeypatch):
    """A 6-step hnls5 IF-RK4 run at stride 3 holds psi-hat between
    snapshots: one forward FFT of f0 at entry, per step 4 forward FFTs of
    the nonlinear part and 4 batched inverse FFTs to psi and its jets, and
    per snapshot (3 of them) one batched inverse FFT that gives both the
    samples and the jets of orders 1-2 that the c1-c3 densities read.  No
    step returns to samples."""
    f = _soliton_field()
    calls = _counted_ffts(monkeypatch)
    traj = evolve_run(f, HNLS5, 6 * 2.5e-5, 2.5e-5, method="ifrk4", snapshot_stride=3)
    assert len(traj.fields) == 3
    assert calls == {("fft", (256,)): 1 + 4 * 6, ("ifft", (5, 256)): 4 * 6, ("ifft", (3, 256)): 3}


def test_rk4_nls_run_stays_in_fourier_space(monkeypatch):
    """The rk4 oracle steps psi-hat through the same bound flow plan as
    IF-RK4: a 6-step NLS run at stride 3 makes one forward FFT of f0, per
    step 4 forward FFTs of the nonlinear part and 4 inverse FFTs to psi
    (the only row that |psi|^2 psi reads), and per snapshot one batched
    inverse FFT; it never evaluates the right-hand side on samples."""

    def forbidden(*args, **kwargs):
        raise AssertionError("eval_rhs called during an rk4 run")

    for module in (spectral, evolve_module):  # also a copy imported by name
        monkeypatch.setattr(module, "eval_rhs", forbidden, raising=False)
    calls = _counted_ffts(monkeypatch)
    traj = evolve_run(_soliton_field(), NLS, 6 * 1e-3, 1e-3, method="rk4", snapshot_stride=3)
    assert len(traj.fields) == 3
    assert calls == {("fft", (256,)): 1 + 4 * 6, ("ifft", (1, 256)): 4 * 6, ("ifft", (3, 256)): 3}


def test_ifrk4_refuses_a_symbol_with_a_real_part(table5):
    """IF-RK4's factors are cos + i sin of the unit phases, which holds
    only for an imaginary linear symbol; a flow whose linear monomial has a
    complex coefficient is refused, not stepped by its phase alone."""
    tilted = SimpleNamespace(H={1: table5.H[1] * (1 + 1j)})
    with pytest.raises(EvolveError, match="flow 1"):
        _stepper(tilted, NLS, Grid(64, 10.0), 1e-3, "ifrk4")


def test_ifrk4_run_and_residual_compile_one_flow_plan(monkeypatch):
    """One plan per FlowSpec: an IF-RK4 run and the residual check of the
    same spec compile the flow plan once; the c1-c3 densities are the one
    other plan."""
    compiled = []

    def counted(*polys, _original=spectral.compile_plan):
        compiled.append(polys)
        return _original(*polys)

    monkeypatch.setattr(spectral, "compile_plan", counted)
    spectral._cached_plan.cache_clear()
    traj = evolve_run(_soliton_field(), HNLS5, 5e-5, 2.5e-5, method="ifrk4", snapshot_stride=1)
    residual(*traj.fields, HNLS5)
    table = default_flow_table(5)
    assert compiled == [
        tuple(table.H[k] for k in range(1, 6)),
        tuple(conserved_density(table, k) for k in (1, 2, 3)),
    ]


def _relative_gap(spec, f, dt, steps):
    got = evolve_run(f, spec, steps * dt, dt, method="ifrk4", snapshot_stride=steps).final.values
    table = default_flow_table(max(spec.max_order, 1))
    ref = ifrk4_reference(table, spec, f, dt, steps)
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def test_ifrk4_hnls5_matches_sample_space_stages():
    """Stages run from psi-hat agree with stages that go back to samples."""
    assert _relative_gap(HNLS5, _soliton_field(), 2.5e-5, 20) <= 1e-13


_UNIT = st.floats(-1.0, 1.0)
_SPAN = 4e-4  # the 20 steps of 2e-5 the property runs
# Schedules whose alpha' changes over the span, with |alpha'| <= 1 as in
# the constant mixes (a bump's up to 4.3): the nonlinear part of H_5 stays
# in RK4's stability region, and rounding is not amplified past 1e-13.
_SCHEDULES = st.one_of(
    st.builds(Linear, _UNIT, _UNIT),
    st.lists(_UNIT, min_size=1, max_size=4).map(
        lambda u: Poly([c / (3 * max(m, 1) * _SPAN ** max(m - 1, 0)) for m, c in enumerate(u)])),
    st.builds(lambda u, freq, phase: Sinusoid(u / max(freq, 1.0), freq, phase),
              _UNIT, st.floats(0.0, 1e4), st.floats(-math.pi, math.pi)),
    st.builds(lambda t0, width, u: Bump(t0, t0 + width, u * width),
              st.floats(-2 * _SPAN, _SPAN), st.floats(_SPAN / 4, 1.0), _UNIT),
)


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.integers(1, 5), _SCHEDULES, min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
@example({k: Linear(b) for k, b in zip(range(1, 6), (1.0, -0.4, -0.1, 0.05, 0.02))}, 0)
def test_ifrk4_constant_specs_match_sample_space_stages(schedules, seed):
    """Random mixes of H_1..H_5 on random smooth fields, each flow's
    schedule drawn from Linear (the constant mixes), Poly, Sinusoid and
    Bump."""
    spec = FlowSpec(sorted(schedules.items()))
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
    """Halving dt divides the error by about 16: rk4 on NLS, and Lawson's
    ifrk4 on a Sinusoid schedule."""
    f0 = _soliton_field(Grid(128, 40.0))
    for spec, method in ((NLS, "rk4"), (FlowSpec([(1, Sinusoid(1.0, 2.0))]), "ifrk4")):
        ref = evolve_run(f0, spec, 0.1, 1e-4, method=method).final.values
        errs = []
        for dt in (4e-3, 2e-3):
            out = evolve_run(f0, spec, 0.1, dt, method=method).final.values
            errs.append(np.max(np.abs(out - ref)))
        ratio = errs[0] / errs[1]
        assert 13.0 < ratio < 19.0, method


def test_t_end_must_divide():
    f0 = _soliton_field()
    with pytest.raises(ValueError):
        evolve_run(f0, NLS, 0.1, 3e-3)


def test_overflowing_fixed_factors_are_one_blowup():
    """Lawson's factors for a constant spec are made before the first step;
    at alpha = 1e308 their phases overflow.  That overflow is the Blowup of
    the first step, with no RuntimeWarning beside it."""
    f0 = _soliton_field(Grid(64, 40.0))
    spec = FlowSpec([(1, Linear(1e308))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for advance in (lambda: evolve_run(f0, spec, 2.0, 2.0), lambda: step(f0, spec, 2.0)):
            with pytest.raises(Blowup) as exc_info:
                advance()
            assert exc_info.value.last_good is f0


def test_run_validates_step_and_span():
    f0 = _soliton_field()
    for dt in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            evolve_run(f0, NLS, 0.1, dt)
    with pytest.raises(ValueError):
        evolve_run(f0, NLS, -0.1, 1e-3)
    with pytest.raises(ValueError):
        evolve_run(f0, NLS, 0.1, 1e-3, snapshot_stride=0)
    # t_end / dt = 1e311 is inf, which int() refused with an OverflowError
    with pytest.raises(ValueError, match="step count"):
        evolve_run(f0, NLS, 1e308, 1e-3)


@pytest.mark.parametrize("t_end, dt", [(1e-9, 3e-10), (1e-20, 1.0)])
def test_run_refuses_t_end_that_is_not_a_multiple_of_dt(t_end, dt):
    """The multiple-of-dt check had an absolute floor of 1e-9, so a t_end
    below it ran to the wrong time: 3 steps of 3e-10 ended at 9e-10, and
    t_end = 1e-20 at dt = 1 ran 0 steps.  The tolerance is relative to t_end."""
    with pytest.raises(ValueError, match="integer multiple of dt"):
        evolve_run(_soliton_field(), NLS, t_end, dt)


def test_run_accepts_t_end_a_multiple_of_dt_up_to_rounding():
    """10 steps of 0.1 sum to 1.0000000000000002, a multiple up to rounding."""
    f0 = _soliton_field(Grid(64, 40.0))
    for t_end, dt, steps in [(1.0, 0.1, 10), (1e-9, 1e-10, 10), (0.0, 1.0, 0)]:
        assert len(evolve_run(f0, NLS, t_end, dt, snapshot_stride=1).times) == steps + 1


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
    the final state must coincide with the initial data.  Both steppers:
    flow-2 dispersion needs the smaller step for rk4 stability, and
    Lawson's ifrk4 propagates it exactly at the larger one."""
    b1 = Bump(0.1, 0.9, 0.3)
    b2 = Bump(1.1, 1.9, 0.2)
    spec = FlowSpec([(1, b1), (2, b2)])
    f0 = _soliton_field()
    for method, dt in (("rk4", 2.5e-4), ("ifrk4", 1e-3)):
        mixed = evolve_run(f0, spec, 2.0, dt, method=method).final

        first = evolve_run(f0, FlowSpec([(1, b1)]), 1.0, dt, method=method).final
        second = evolve_run(first, FlowSpec([(2, b2)]), 1.0, dt, method=method).final

        assert np.max(np.abs(mixed.values - second.values)) < 1e-6, method
        # alpha_1(2) = alpha_2(2) = 0: the deformation closes back on itself
        assert np.max(np.abs(mixed.values - f0.values)) < 1e-5, method


def test_bump_mid_support_matches_sampler():
    """Inside the bump the run sits at the sampler argument t_1 = alpha(t)."""
    b1 = Bump(0.1, 0.9, 0.3)
    f0 = _soliton_field()
    traj = evolve_run(f0, FlowSpec([(1, b1)]), 0.5, 1e-3, method="rk4")
    ref = sample_onto_grid(soliton(1.0), f0.grid, (b1.value(0.5),), t=0.5, images=1)
    assert np.max(np.abs(traj.final.values - ref.values)) < 1e-6
