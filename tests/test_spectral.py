"""Grid fields, spectral differentiation, compiled evaluation plans,
residual tests, conserved integrals, and field file I/O."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    centred_difference,
    eval_rhs_reference,
    fornberg_weights,
    quadratic_derivative_reference,
    residual_reference,
    rhs_terms,
)

from rakns import spectral
from rakns.diffpoly import DiffPoly, GaussianRational, dp_reduce, jet
from rakns.evolve import FlowSpec, Linear
from rakns.hierarchy import conserved_density
from rakns.solutions import plane_wave, soliton
from rakns.spectral import (
    EvalPlan,
    Field,
    FieldFormatError,
    Grid,
    SpectralError,
    UnreducedInput,
    _BoundPlan,
    _cached_plan,
    compile_plan,
    conserved_integral,
    eval_rhs,
    flow_plan,
    read_field,
    residual,
    sample_onto_grid,
    spectral_derivative,
    write_field,
)


# -- grids and fields --------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(100, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(8, 10.0)  # too small
    with pytest.raises(ValueError):
        Grid(64, -1.0)


def test_grid_nodes_and_xi():
    g = Grid(64, 16.0)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(16.0 - g.dx)
    assert np.max(np.abs(g.xi)) == pytest.approx(np.pi / g.dx)


def test_field_rejects_nan():
    g = Grid(16, 1.0)
    v = np.zeros(16, dtype=complex)
    v[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, v)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
def test_field_rejects_non_finite_time(time):
    with pytest.raises(ValueError, match="time"):
        Field(Grid(16, 1.0), np.zeros(16, dtype=complex), time)


def test_field_values_are_frozen():
    g = Grid(16, 1.0)
    f = Field(g, np.zeros(16, dtype=complex))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


# -- differentiation ---------------------------------------------------------


def test_single_mode_derivative_exact():
    g = Grid(128, 2 * np.pi)
    for m in (1, 3, 10):
        u = np.exp(1j * m * g.nodes)
        for order in (1, 2, 3):
            d = spectral_derivative(u, order, g)
            assert np.allclose(d, (1j * m) ** order * u, atol=1e-10)


def test_derivative_matches_finite_differences():
    """Independent low-order oracle on a smooth periodic profile."""
    g = Grid(256, 2 * np.pi)
    u = np.exp(np.sin(g.nodes))
    d1 = spectral_derivative(u, 1, g)
    fd = (np.roll(u, -1) - np.roll(u, 1)) / (2 * g.dx)
    assert np.max(np.abs(d1 - fd)) < 1e-3
    # and against the analytic derivative exactly
    assert np.max(np.abs(d1 - np.cos(g.nodes) * u)) < 1e-10


def test_odd_derivative_nyquist_zeroed():
    g = Grid(32, 2 * np.pi)
    u = np.cos(16 * g.nodes)  # pure Nyquist mode, real
    d = spectral_derivative(u, 1, g)
    assert np.max(np.abs(d.imag)) < 1e-12


# -- plans -------------------------------------------------------------------


def test_compile_rejects_unreduced():
    p = DiffPoly.var("psi") * DiffPoly.var("phi")
    with pytest.raises(UnreducedInput):
        compile_plan(p)


def _two_sources_sharing_psi_x_psibar():
    """Two sources that share the monomial psi_x psibar, each also with a
    monomial of its own."""
    shared = {jet("psi", 1): 1, jet("psibar"): 1}
    return [
        DiffPoly.monomial(GaussianRational(2, 1), shared) + DiffPoly.var("psi", 2),
        DiffPoly.monomial(GaussianRational(-1, 3), shared) + DiffPoly.monomial(1, {jet("psi"): 2, jet("psibar"): 1}),
    ]


def test_plans_match_their_sources(table5):
    """A compiled plan evaluates the polynomials it was compiled from: H_1..H_5
    alone, flows 1-3 and densities 1-3 together, and two sources sharing a
    monomial, whose coefficients the plan must merge into one row, checked
    against the per-monomial sum of the sources themselves."""
    g, values = _smooth_samples(7)
    densities = [conserved_density(table5, k) for k in (1, 2, 3)]
    cases = [[table5.H[k]] for k in range(1, 6)]
    cases += [[table5.H[1], table5.H[2], table5.H[3]], densities, _two_sources_sharing_psi_x_psibar()]
    for sources in cases:
        plan = compile_plan(*sources)
        for weights in (None, [0.5 - 2j, 1.5, -1j][: len(sources)]):
            err = np.max(np.abs(eval_rhs(plan, values, g, weights) - eval_rhs_reference(sources, values, g, weights)))
            assert err <= 1e-13 * _term_scale(sources, values, g, weights)


def test_plan_cache_returns_same_object(table5):
    a = _cached_plan(table5.H[2])
    b = _cached_plan(table5.H[2])
    assert a is b


def test_equal_polynomials_built_apart_share_one_plan():
    """The hash a polynomial keeps after its first use is the hash of its
    terms, so equal polynomials built apart find one cached plan."""
    psi, psibar = DiffPoly.var("psi"), DiffPoly.var("psibar")
    p = psi * psi * psibar + DiffPoly.var("psi", 2)
    q = DiffPoly.var("psi", 2) + psibar * (psi * psi)
    assert p == q and p is not q
    assert hash(p) == hash(q) == hash(p) == hash(p.terms)
    assert _cached_plan(p) is _cached_plan(q)


def test_eval_h1_on_sech(table5):
    """H_1(sech) = sech - 2 sech^3 + 2 sech^3 = ... checked analytically:
    (sech)'' + 2 sech^3 = sech."""
    g = Grid(512, 60.0)
    x = g.nodes - 30.0
    u = 1.0 / np.cosh(x)
    f = Field(g, u.astype(complex))
    out = eval_rhs(compile_plan(table5.H[1]), f)
    assert np.max(np.abs(out - u)) < 1e-9


def test_eval_h2_on_sech(table5):
    """H_2(sech) = (sech)' exactly (the mkdv flow translates the profile)."""
    g = Grid(512, 60.0)
    x = g.nodes - 30.0
    u = 1.0 / np.cosh(x)
    f = Field(g, u.astype(complex))
    out = eval_rhs(compile_plan(table5.H[2]), f)
    du = -np.tanh(x) / np.cosh(x)
    assert np.max(np.abs(out - du)) < 1e-8


_jet_powers = st.dictionaries(
    st.builds(jet, st.sampled_from(["psi", "psibar"]), st.integers(0, 4)),
    st.integers(1, 3),
    max_size=4,
)
_gaussian_ints = st.builds(GaussianRational, st.integers(-9, 9), st.integers(-9, 9))
_reduced_polys = st.lists(st.tuples(_gaussian_ints, _jet_powers), max_size=6).map(
    lambda terms: sum((DiffPoly.monomial(c, facs) for c, facs in terms), DiffPoly.zero())
)
# No subnormal weights: a term scaled by 5e-324 sits below the relative
# tolerance's own underflow, whatever order the evaluator sums in.
_weights = st.complex_numbers(
    max_magnitude=3, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


@st.composite
def _sources_and_weights(draw):
    sources = draw(st.lists(_reduced_polys, min_size=1, max_size=3))
    weights = draw(st.none() | st.lists(_weights, min_size=len(sources), max_size=len(sources)))
    return sources, weights


def _smooth_samples(seed):
    """A grid of 32 points and random samples of modes -3..3 on it."""
    g = Grid(32, 2 * np.pi)
    rng = np.random.default_rng(seed)
    amps = [1, 1j] @ rng.uniform(-1, 1, (2, 7))  # jets of order 4 stay O(100)
    return g, np.exp(1j * np.outer(g.nodes, np.arange(-3, 4))) @ amps


def _term_scale(sources, values, g, weights) -> float:
    """The largest sum of |monomial| over the grid: the size that rounding
    in a sum of the weighted monomials is relative to."""
    terms = rhs_terms(sources, values, g, weights)
    return np.max(sum((np.abs(t) for t in terms), np.zeros(g.n)))


@settings(max_examples=150, deadline=None)
@given(_sources_and_weights(), st.integers(0, 2**32 - 1))
@example(([DiffPoly.zero()], None), 0)
@example(([DiffPoly.zero(), DiffPoly.zero()], [1.0, 2j]), 1)
@example(([DiffPoly.constant(GaussianRational(2, -1)) + DiffPoly.var("psibar", 2)], None), 2)
@example(([DiffPoly.monomial(3, {jet("psi", 1): 3, jet("psibar", 4): 2})], [0.5j]), 3)
@example(([DiffPoly.var("psi", 3), DiffPoly.constant(1)], None), 4)
@example((_two_sources_sharing_psi_x_psibar(), [1.0, 2j]), 5)
def test_eval_rhs_matches_per_monomial_loop(sources_weights, seed):
    """The product program sums the same monomials as the per-monomial
    loop: the same values up to the order of products and sums."""
    sources, weights = sources_weights
    g, values = _smooth_samples(seed)
    plan = compile_plan(*sources)
    got = eval_rhs(plan, values, g, weights)
    assert got.shape == (g.n,)
    err = np.max(np.abs(got - eval_rhs_reference(sources, values, g, weights)))
    assert err <= 1e-13 * _term_scale(sources, values, g, weights)


@settings(max_examples=150, deadline=None)
@given(_sources_and_weights(), st.integers(0, 2**32 - 1))
@example(([DiffPoly.var("psi") + DiffPoly.var("psi", 1) * DiffPoly.var("psibar", 2)], None), 0)
@example(([DiffPoly.var("psi", 2), DiffPoly.monomial(1, {jet("psi", 2): 2, jet("psibar", 0): 1})], [2.0, -1j]), 1)
@example(([DiffPoly.constant(GaussianRational(2, -1)) + DiffPoly.var("psibar", 2) + DiffPoly.var("psi", 3)], None), 2)
@example(([DiffPoly.zero()], [1j]), 3)
def test_linear_symbol_and_bound_plan_split_eval_rhs(sources_weights, seed):
    """The linear monomials, as the bound plan's Fourier symbol, and the
    rest, as the bound program run from psi-hat, add up to eval_rhs: psi
    as a monomial, a linear jet also used in a product, and a lone psibar
    jet or a constant included."""
    sources, weights = sources_weights
    g, values = _smooth_samples(seed)
    plan = compile_plan(*sources)
    psi_hat = np.fft.fft(values)
    split = _BoundPlan(plan, g)(psi_hat, weights) + np.fft.ifft(_BoundPlan(plan, g).symbol(weights) * psi_hat)
    err = np.max(np.abs(split - eval_rhs(plan, values, g, weights)))
    assert err <= 1e-13 * _term_scale(sources, values, g, weights)


def test_hnls5_ifrk4_program_shares_products(table5):
    """The flow plan that IF-RK4 runs for the hnls5 mix: a block of 33 rows,
    one per monomial, headed by the 5 linear jets psi_2x..psi_6x; the 28
    nonlinear monomials, whose factor loop takes 102 multiplications, share
    prefixes down to 49 products and conjugate each psibar jet once."""
    plan = flow_plan(table5, FlowSpec.from_coeffs((1.0, -0.4, -0.1, 0.05, 0.02)))
    assert plan.scatter.shape == (33, 5)
    linear = range(plan.first, 1 + len(plan.orders))
    assert [plan.orders[r - 1] for r in linear] == [2, 3, 4, 5, 6]
    assert len(plan.products) <= 49
    assert len(plan.conj) == 5
    # the weighted sum touches the monomial rows only, linear jets included
    for sources in ([table5.H[k] for k in range(1, 6)], [table5.H[1], table5.H[2], table5.H[3]]):
        monomials = {m.factors for h in sources for m in h.terms}
        assert compile_plan(*sources).scatter.shape == (len(monomials), len(sources))


# -- residual ----------------------------------------------------------------


def test_residual_accepts_true_solution(table5):
    s = soliton(1.0)
    g = Grid(256, 40.0)
    spec = FlowSpec([(1, Linear(1.0))])
    d = 1e-5
    fields = [
        sample_onto_grid(s, g, (t,), t=t, images=1) for t in (-d, 0.0, d)
    ]
    assert residual(*fields, spec) < 1e-6


def test_residual_rejects_fake_solution(table5):
    """Deliberately wrong time dependence must produce a large residual."""
    g = Grid(256, 40.0)
    spec = FlowSpec([(1, Linear(1.0))])
    d = 1e-5

    def fake(t):
        x = g.nodes - 20.0
        u = np.cosh(x) ** -1 * np.exp(2j * t)  # wrong phase rate (should be 1j t)
        return Field(g, u, t)

    assert residual(fake(-d), fake(0.0), fake(d), spec) > 0.5


def _three_fields(seed, times):
    """Random band-limited fields at three times, each as _smooth_samples."""
    return [Field(*_smooth_samples(seed + i), t) for i, t in enumerate(times)]


_TWO_FLOWS = FlowSpec([(1, Linear(1.0)), (2, Linear(-0.5))])


def _agrees_with_the_quadratic(fields, spec=_TWO_FLOWS) -> bool:
    """residual against the derivative of the quadratic through the fields
    at their own times (Fornberg's weights), to the rounding of the sum of
    the weighted fields and of the right side."""
    w = fornberg_weights(fields[1].time, [f.time for f in fields], 1)[:, 1]
    size = sum(abs(wj) * np.max(np.abs(f.values)) for wj, f in zip(w, fields))
    ref = residual_reference(quadratic_derivative_reference(fields), fields[1], spec)
    return abs(residual(*fields, spec) - ref) <= 1e-14 * (size + ref)


def test_residual_requires_increasing_times():
    """Uneven steps were refused; the residual now takes the derivative of
    the quadratic through the fields at their own times, and only times
    that do not increase are refused."""
    assert _agrees_with_the_quadratic(_three_fields(3, (0.0, 1.0, 3.0)))
    g = Grid(64, 10.0)
    z = np.zeros(64, dtype=complex)
    spec = FlowSpec([(1, Linear(1.0))])
    for times in [(0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 2.0, 1.0)]:
        with pytest.raises(SpectralError, match="step forward in time"):
            residual(*(Field(g, z, t) for t in times), spec)


def test_uniform_times_away_from_zero_agree_with_the_quadratic():
    """Times t0 + i dt round to steps that differ by up to an ulp of t, and
    a triple whose steps differ by more than the rounding of t was
    refused; every triple now agrees with the quadratic through it, and
    the triple of the uneven steps 1e-5 and 1.2e-5 too."""
    for t0, dt in [(10.0, 1e-3), (1.0, 2.5e-5), (-3.0, 1e-4), (1e3, 1e-5)]:
        times = [t0 + i * dt for i in range(60)]
        assert all(_agrees_with_the_quadratic(_three_fields(i, times[i : i + 3])) for i in range(58))
    t = 1e10 + 0.5  # ulp(t) is 1.9e-6
    assert _agrees_with_the_quadratic(_three_fields(0, (t - 1e-5, t, t + 1.2e-5)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(-100.0, 100.0), st.floats(1e-6, 1.0), st.floats(1e-3, 1e3))
@example(0, 0.0, 1e-2, 1.0)
@example(1, 10.0, 1e-3, 1e-3)
@example(2, -3.0, 0.5, 1e3)
def test_residual_derivative_is_the_quadratic_through_the_fields(seed, t0, h1, ratio):
    """At steps h1 and h2 = ratio h1, the residual agrees with Fornberg's
    weights to rounding; at equal float steps it is the centred difference
    of the outer fields, bit for bit."""
    assert _agrees_with_the_quadratic(_three_fields(seed, (t0 - h1, t0, t0 + ratio * h1)))
    h, t = 2.0 ** math.floor(math.log2(h1)), float(round(t0))
    fields = _three_fields(seed, (t - h, t, t + h))
    assert fields[1].time - fields[0].time == fields[2].time - fields[1].time
    centred = residual_reference(centred_difference(fields[0], fields[2]), fields[1], _TWO_FLOWS)
    assert residual(*fields, _TWO_FLOWS) == centred


def test_residual_at_tiny_equal_steps_is_the_centred_difference():
    """Steps of 1e-200 square to 0: the correction to the centred
    difference must not divide by h1 h2, or 0/0 turns the residual to NaN."""
    fields = _three_fields(4, (-1e-200, 0.0, 1e-200))
    r = residual(*fields, _TWO_FLOWS)
    assert r == residual_reference(centred_difference(fields[0], fields[2]), fields[1], _TWO_FLOWS)
    assert math.isfinite(r)


def test_residual_is_second_order_in_uneven_steps():
    """Flow 2 alone on the soliton at t0 = 0.3, h1 = 1e-2: the residual is
    the truncation error of the quadratic, proportional to h1 h2, and the
    uneven cases were refused."""
    g = Grid(256, 40.0)
    spec = FlowSpec([(2, Linear(1.0))])
    h1, got = 1e-2, []
    for ratio, expected in [(1.0, 2.533e-5), (0.5, 1.267e-5), (0.1, 2.531e-6)]:
        times = (0.3 - h1, 0.3, 0.3 + ratio * h1)
        r = residual(*(sample_onto_grid(soliton(1.0, 2), g, (0.0, t), t=t) for t in times), spec)
        assert r == pytest.approx(expected, rel=1e-3)
        got.append(r / ratio)
    assert max(got) / min(got) < 1.01


def test_residual_requires_shared_grid():
    spec = FlowSpec([(1, Linear(1.0))])
    f1 = Field(Grid(64, 10.0), np.zeros(64, dtype=complex), 0.0)
    f2 = Field(Grid(128, 10.0), np.zeros(128, dtype=complex), 1e-5)
    with pytest.raises(SpectralError):
        residual(f1, f2, f1, spec)


def test_residual_refuses_a_value_that_is_not_finite():
    """At amplitude 1e200 the cubic term overflows, so the residual is NaN.
    It raises, quietly: a caller that keeps max(worst, r) dropped the NaN
    and passed the check."""
    g = Grid(64, 10.0)
    values = 1e200 * (1.0 + 0.1 * np.cos(2 * np.pi * np.arange(64) / 64)) + 0j
    fields = [Field(g, values, t) for t in (0.0, 1e-5, 2e-5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpectralError, match="not finite"):
            residual(*fields, FlowSpec([(1, Linear(1.0))]))


# -- conserved integrals -----------------------------------------------------


def test_mass_integral_of_soliton(table5):
    """integral |psi|^2 = 2a for the bright soliton; density_1 = -psi psibar
    up to the recursion's normalization, so check proportionality."""
    g = Grid(1024, 80.0)
    f = sample_onto_grid(soliton(1.0), g, ())
    c1 = conserved_integral(f, table5, 1)
    direct = np.sum(np.abs(f.values) ** 2) * g.dx
    ratio = c1 / direct  # fixed unit-modulus normalization of density_1
    assert abs(ratio) == pytest.approx(1.0)
    # the same density evaluated on a doubled profile keeps the ratio
    f2 = sample_onto_grid(soliton(2.0), g, ())
    c2 = conserved_integral(f2, table5, 1)
    assert c2 / (np.sum(np.abs(f2.values) ** 2) * g.dx) == pytest.approx(ratio)


def test_conserved_integral_is_the_one_density_route(table5, monkeypatch):
    """conserved_integral(f, table, k) is the route of the run records, from
    the FFT of f, with the one density k: the same value exactly, and no
    eval_rhs call.  The route's samples are f's, back from psi-hat."""
    g = Grid(256, 40.0)
    boost = np.exp(2j * np.pi * 3 * g.nodes / g.length)  # c2 of a still soliton is 0
    f = Field(g, sample_onto_grid(soliton(1.0), g, ()).values * boost)

    def no_eval_rhs(*args, **kwargs):
        raise AssertionError("conserved_integral called eval_rhs")

    monkeypatch.setattr(spectral, "eval_rhs", no_eval_rhs)
    for k in (1, 2, 3):
        c = conserved_integral(f, table5, k)
        assert type(c) is complex and c != 0
        samples, row = _BoundPlan(_cached_plan(conserved_density(table5, k)), g).integrals(np.fft.fft(f.values))
        assert c == row[0]
        assert np.max(np.abs(samples - f.values)) <= 1e-15 * np.max(np.abs(f.values))


def test_quadrature_matches_trapezoid():
    """Mean times L equals the periodic trapezoid rule."""
    g = Grid(128, 7.0)
    u = np.sin(2 * np.pi * g.nodes / 7.0) ** 2 + 1.0
    assert np.mean(u) * g.length == pytest.approx(np.sum(u) * g.dx)


# -- file format -------------------------------------------------------------


def test_field_file_roundtrip(tmp_path):
    g = Grid(64, 12.5)
    rng = np.random.default_rng(3)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    f = Field(g, v, 0.375)
    path = tmp_path / "f.txt"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == g
    assert back.time == f.time
    assert np.array_equal(back.values, f.values)  # 17 digits: exact doubles


def test_field_file_bytes_match_per_sample_format(tmp_path):
    """The file is byte for byte what formatting each numpy sample gives."""
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 1 / 3, -1.0]
    re_ = np.array(special + [2.0**k for k in range(-3, 3)])
    v = np.empty(16, dtype=complex)
    v.real, v.imag = re_, re_[::-1]  # re + 1j * im would turn -0.0 into 0.0
    f = Field(Grid(16, 0.1 + 0.2), v, -1e-300)
    lines = ["# akns-field v1", f"n=16 L={f.grid.length:.17g} t={f.time:.17g}"]
    lines += [f"{i} {x.real:.17g} {x.imag:.17g}" for i, x in enumerate(f.values)]
    path = tmp_path / "f.txt"
    write_field(f, path)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert "\n0 -0 " in path.read_text() and "e-324 " in path.read_text()


def test_field_file_header_check(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a field file\n")
    with pytest.raises(SpectralError):
        read_field(path)


@pytest.mark.parametrize(
    "meta",
    ["L=1 t=0", "n=16 t=0", "n=16 L=1", "n=16 L=one t=0", "n=sixteen L=1 t=0", "n=16 L=1 t", ""],
)
def test_field_file_bad_metadata(tmp_path, meta):
    """A missing or non-numeric n=/L=/t= is a format error, not a KeyError."""
    path = tmp_path / "f.txt"
    write_field(Field(Grid(16, 1.0), np.ones(16, dtype=complex)), path)
    lines = path.read_text().splitlines()
    lines[1] = meta
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectralError, match="metadata"):
        read_field(path)


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_field_file_non_finite_time(tmp_path, t):
    """A file stamped t=nan or t=inf is a format error that names t=."""
    path = tmp_path / "f.txt"
    write_field(Field(Grid(16, 1.0), np.ones(16, dtype=complex)), path)
    path.write_text(path.read_text().replace("t=0\n", f"t={t}\n", 1))
    with pytest.raises(FieldFormatError, match=f"t={t}"):
        read_field(path)


@pytest.mark.parametrize("bad", ["5 1", "5 1 0 0", "five 1 0", "5 1 zero"])
def test_field_file_bad_sample_line(tmp_path, bad):
    """A sample line that is not 'index re im' names its line number."""
    path = tmp_path / "f.txt"
    write_field(Field(Grid(16, 1.0), np.ones(16, dtype=complex)), path)
    lines = path.read_text().splitlines()
    lines[2 + 5] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectralError, match="line 8"):
        read_field(path)


def test_field_file_truncated(tmp_path):
    g = Grid(16, 1.0)
    f = Field(g, np.zeros(16, dtype=complex))
    path = tmp_path / "f.txt"
    write_field(f, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(SpectralError):
        read_field(path)


def test_field_file_repeated_index(tmp_path):
    """A repeated index must not leave another sample silently at zero."""
    g = Grid(16, 1.0)
    path = tmp_path / "f.txt"
    write_field(Field(g, np.ones(16, dtype=complex)), path)
    lines = path.read_text().splitlines()
    lines[2 + 5] = "4 1 0"  # sample 5 replaced by a second sample 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectralError, match="index 4"):
        read_field(path)


def test_field_file_roundtrip_keeps_signed_zeros(tmp_path):
    """Columns go into the real and imaginary parts as read: -0.0 stays."""
    g = Grid(16, 1.0)
    v = np.empty(16, dtype=complex)
    v.real, v.imag = np.tile([-0.0, 0.0, 5e-324, -1.5], 4), np.repeat([0.0, -0.0, 1e300, -2.0], 4)
    path = tmp_path / "f.txt"
    write_field(Field(g, v), path)
    back = read_field(path).values
    assert np.array_equal(back.view(np.uint64), v.view(np.uint64))


@pytest.mark.parametrize(
    "damage, message",
    [
        ({3: "3 1 0 extra", 9: "99 1 0"}, "line 6"),  # malformed before out of range
        ({3: "99 1 0", 9: "3 1"}, "index 99 out of range"),
        ({3: "2 1 0", 9: "-1 1 0"}, "index 2 repeated"),
        ({3: "-1 1 0", 9: "2 1 0", 12: "nine 1 0"}, "index -1 out of range"),
        ({9: "1" * 30 + " 1 0"}, "out of range"),  # beyond int64
    ],
)
def test_field_file_reports_first_bad_line(tmp_path, damage, message):
    """Of several bad sample lines the first in the file is reported."""
    path = tmp_path / "f.txt"
    write_field(Field(Grid(16, 1.0), np.ones(16, dtype=complex)), path)
    lines = path.read_text().splitlines()
    for i, text in damage.items():
        lines[2 + i] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpectralError, match=message):
        read_field(path)


@pytest.mark.parametrize("bad", ["\u0661\u0660 1 0", "1_0 1 0", "10 1_0 0", "10 1 \u0660", "10 1e1_0 0"])
def test_field_file_tokens_are_ascii_without_underscores(tmp_path, bad):
    """int() and float() read Unicode digits and digit-group underscores;
    the field format does not, and such a token names its file line."""
    path = tmp_path / "f.txt"
    write_field(Field(Grid(16, 1.0), np.ones(16, dtype=complex)), path)
    lines = path.read_text().splitlines()
    lines[2 + 10] = bad
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FieldFormatError, match="line 13: expected 'index re im'"):
        read_field(path)


def test_field_file_non_utf8_byte_names_its_line(tmp_path):
    """A byte outside ASCII that is not UTF-8 either is a bad token too, not
    a codec error."""
    path = tmp_path / "f.txt"
    write_field(Field(Grid(16, 1.0), np.ones(16, dtype=complex)), path)
    lines = path.read_bytes().split(b"\n")
    lines[2 + 10] = b"10 1\xff 0"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FieldFormatError, match="line 13: expected 'index re im'"):
        read_field(path)


@pytest.mark.parametrize("body", ["", "\n \n\t\n"])
def test_field_file_without_samples_warns_nothing(tmp_path, body):
    """A body with no sample line is short by n samples, without a warning."""
    path = tmp_path / "f.txt"
    path.write_text(f"# akns-field v1\nn=16 L=1 t=0\n{body}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldFormatError, match="expected 16 samples, got 0"):
            read_field(path)


# Signed zeros, subnormals (the smallest, the largest, one between), the
# smallest normal double and +-DBL_MAX.
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 2.2250738585072014e-308,
                 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([16, 256, 4096]), st.integers(0, 2**32 - 1))
def test_field_file_roundtrip_is_bit_identical(tmp_path_factory, n, seed):
    """Any finite doubles, subnormals, signed zeros and the largest double
    among them, read back with the bits they were written with."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64 - 1, size=2 * n + 1, dtype=np.uint64, endpoint=True)
    bits[((bits >> 52) & 0x7FF) == 0x7FF] ^= np.uint64(1 << 62)  # an inf/nan exponent made finite
    doubles = bits.view(float)
    doubles[rng.choice(len(doubles), len(_EDGE_DOUBLES), replace=False)] = _EDGE_DOUBLES
    f = Field(Grid(n, 40.0), doubles[1:].view(complex), float(doubles[0]))
    path = tmp_path_factory.mktemp("roundtrip") / "f.txt"
    write_field(f, path)
    back = read_field(path)
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))
    assert np.float64(back.time).view(np.uint64) == np.float64(f.time).view(np.uint64)


# -- sampling ----------------------------------------------------------------


def test_sample_centering():
    g = Grid(256, 40.0)
    f = sample_onto_grid(soliton(1.0), g, ())
    assert np.argmax(np.abs(f.values)) == 128


def test_sample_images_smooth_seam():
    """Periodized sampling removes the derivative jump at the seam."""
    g = Grid(512, 20.0)  # short domain: tails ~ sech(10) are visible
    spec = FlowSpec([(2, Linear(1.0))])
    d = 1e-5

    def fields(images):
        out = []
        for t in (-d, 0.0, d):
            out.append(
                sample_onto_grid(soliton(1.0), g, (0.0, t), t=t, images=images)
            )
        return out

    plain = residual(*fields(0), spec)
    periodized = residual(*fields(2), spec)
    assert periodized < plain / 100
