"""The two-parameter scaling-boost group: argument maps, phase factors,
transformed solutions, closed forms, and the bridge to the moduli
transform."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rakns.solutions
import rakns.symmetry
import test_acceptance
from oracles import (
    boost_exponent_reference,
    hirota_closed_form,
    identity_errors_reference,
    moduli_transform_reference,
    scaling,
    transform_arguments_reference,
)
from rakns.cli import main
from rakns.evolve import FlowSpec, Linear
from rakns.solutions import _affine_matrix, moduli_transform, plane_wave, random_riemann_data, soliton
from rakns.spectral import Grid, residual, sample_onto_grid
from rakns.symmetry import SymmetryParams, _argument_map, identity_errors, transform_solution


def _group_maps(a, b, x, times):
    """(E, X, T) as transform_solution makes them: the argument map of
    P(a, b) with one row per time and two more."""
    return _argument_map(_affine_matrix(a, b, len(times) + 1), x, times)


def test_params_reject_zero_a():
    with pytest.raises(ValueError):
        SymmetryParams(0.0, 1.0)


@pytest.mark.parametrize("a, b, name", [(math.nan, 0.0, "a"), (-math.inf, 0.0, "a"), (1.0, math.nan, "b"), (1.0, math.inf, "b")])
def test_params_refuse_non_finite(a, b, name):
    """A NaN b was accepted and surfaced later as 'V must be finite'."""
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SymmetryParams(a, b)


def test_composition_law():
    """lambda -> a2(a1 lambda + b1) + b2 is the transform (a1 a2, a2 b1 + b2):
    P(a2, b2) P(a1, b1) = P(a1 a2, a2 b1 + b2)."""
    (a1, b1), (a2, b2) = (1.5, 0.3), (0.8, -0.2)
    P1, P2, Pc = (_affine_matrix(a, b, 6) for a, b in ((a1, b1), (a2, b2), (a1 * a2, a2 * b1 + b2)))
    assert np.allclose(P2 @ P1, Pc, rtol=1e-14, atol=1e-14)


def test_composition_matches_argument_maps():
    """Applying the argument maps one after the other equals the composite."""
    (a1, b1), (a2, b2) = (1.5, 0.3), (0.8, -0.2)
    x, times = 0.7, (0.2, -0.1, 0.05, 0.0, 0.3)
    _, X1, T1 = _group_maps(a2, b2, x, times)
    _, X12, T12 = _group_maps(a1, b1, X1, T1)
    _, Xc, Tc = _group_maps(a1 * a2, a2 * b1 + b2, x, times)
    assert X12 == pytest.approx(Xc)
    assert np.allclose(T12, Tc)


def test_identity_transform_is_trivial():
    x, times = 1.2, (0.3, 0.4)
    E, X, T = _group_maps(1.0, 0.0, x, times)
    assert X == x and T == times
    assert complex(np.exp(-1j * E)) == 1.0


def test_argument_map_zero_boost_is_pure_scaling():
    _, X, T = _group_maps(2.0, 0.0, 1.0, (1.0, 1.0, 1.0))
    assert X == pytest.approx(2.0)
    assert np.allclose(T, [4.0, 8.0, 16.0])  # a^{j+1}


def test_phase_factor_unit_modulus():
    E, _, _ = _group_maps(1.3, 0.4, np.linspace(-5, 5, 11), (0.2, -0.1))
    assert np.allclose(np.abs(np.exp(-1j * E)), 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_transformed_soliton_solves_flows(k):
    """Covariance check: the transformed sampler passes the single-flow
    residual test (boost chosen commensurate with the period)."""
    g = Grid(512, 40.0)
    b = 2 * math.pi / g.length  # e^{-2ibx} periodic on the grid
    p = SymmetryParams(1.2, b)
    s = transform_solution(soliton(1.0), p)
    spec = FlowSpec([(k, Linear(1.0))])
    d = 1e-5
    fields = []
    for sgn in (-1, 0, 1):
        times = [0.0] * 5
        times[k - 1] = sgn * d
        fields.append(sample_onto_grid(s, g, tuple(times), t=sgn * d, images=2))
    assert residual(*fields, spec) < 1e-5


def test_transformed_plane_wave_solves_nls():
    g = Grid(256, 40.0)
    b = -3 * math.pi / g.length
    p = SymmetryParams(0.9, b)
    s = transform_solution(plane_wave(1.0), p)
    spec = FlowSpec([(1, Linear(1.0))])
    d = 1e-5
    fields = [sample_onto_grid(s, g, (sgn * d,), t=sgn * d) for sgn in (-1, 0, 1)]
    assert residual(*fields, spec) < 1e-8


def test_galilean_boost_velocity():
    """Pure boost on the first flow shifts the soliton peak with velocity
    -4b (binomial C(2,1)(2b) in the argument map)."""
    b = 0.25
    p = SymmetryParams(1.0, b)
    s = transform_solution(soliton(1.0), p)
    t = 0.8
    xs = np.linspace(-6, 6, 4001)
    profile = np.abs(s(xs, (t,)))
    peak = xs[np.argmax(profile)]
    assert peak == pytest.approx(-4 * b * t, abs=xs[1] - xs[0] + 1e-9)


def test_scaling_equals_transform_on_flow_ray():
    """scaling(n, q) must agree with transform_solution((q, 0)) when only
    t_n runs."""
    base = soliton(1.0)
    for n in (1, 2, 3, 4, 5):
        for q in (0.5, 2.0):
            sc = scaling(n, q, base)
            tr = transform_solution(base, SymmetryParams(q, 0.0))
            xs = np.linspace(-2, 2, 9)
            t = 0.11
            times = [0.0] * 5
            times[n - 1] = t
            assert np.allclose(sc(xs, tuple(times)), tr(xs, tuple(times)), atol=1e-12)


def test_scaling_requires_positive_q():
    with pytest.raises(ValueError):
        scaling(1, -1.0, soliton(1.0))


def test_hirota_closed_form_matches_generic():
    """The explicit Hirota-ray formula equals the generic transform on the
    ray (t_1, t_2) = (alpha t, -beta t)."""
    rng = np.random.default_rng(9)
    base = soliton(1.0)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.5, 0.5)
        alpha = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-1.0, 1.0)
        closed = hirota_closed_form(a, b, alpha, beta, base)
        p = SymmetryParams(a, b)
        generic = transform_solution(base, p)
        xs = rng.uniform(-3, 3, size=32)
        t = rng.uniform(-0.5, 0.5)
        want = generic(xs, (alpha * t, -beta * t))
        got = closed(xs, (t,))
        assert np.max(np.abs(got - want)) < 1e-12


def test_identity_errors_random_data():
    data = random_riemann_data(2, 5, rng=41)
    p = SymmetryParams(1.8, -0.35)
    errs = identity_errors(data, p, 5)
    assert errs["argument"] < 1e-12
    assert errs["phase"] < 1e-12


def test_identity_errors_match_per_direction_oracle():
    """One phases call per side gives bit for bit the errors of one call
    per basis direction."""
    rng = np.random.default_rng(43)
    for genus in (1, 2, 3):
        for M in range(6):
            for _ in range(4):
                data = random_riemann_data(genus, 5, rng=rng)
                a, b = rng.choice([-1, 1]) * rng.uniform(0.3, 2.5), rng.uniform(-1, 1)
                assert identity_errors(data, SymmetryParams(a, b), M) == identity_errors_reference(data, a, b, M)


def test_transformed_phases_along_the_basis_are_the_moduli():
    """identity_errors reads V~ and -K~ for the transformed side: they are
    exactly the phases at x = 1 or t_j = 1, every other coordinate 0."""
    rng = np.random.default_rng(45)
    for genus in (1, 2, 3):
        data = random_riemann_data(genus, 5, rng=rng)
        td = moduli_transform(data, -1.4, 0.6)
        for M in range(6):
            x, *times = np.eye(M + 1)
            U, Phi = td.phases(x, times)
            assert np.array_equal(U, np.array(td.V[: M + 1]))
            assert np.array_equal(Phi, -np.array(td.K[1 : M + 2]))


def test_phases_with_array_times_match_scalar_calls():
    rng = np.random.default_rng(44)
    for genus in (1, 2, 3):
        data = random_riemann_data(genus, 5, rng=rng)
        x, times = rng.uniform(-3, 3, 7), list(rng.uniform(-1, 1, (5, 7)))
        U, Phi = data.phases(x, times)
        for i in range(len(x)):
            U_i, Phi_i = data.phases(float(x[i]), [float(t[i]) for t in times])
            assert np.array_equal(U[i], U_i) and Phi[i] == Phi_i


def test_identity_errors_keep_nan(monkeypatch):
    """A NaN error is reported as NaN; max(err, nan) used to drop it."""
    import rakns.symmetry

    data = random_riemann_data(1, 2, rng=41)
    transformed = rakns.symmetry.moduli_transform(data, 1.0, 0.0)
    object.__setattr__(transformed, "K", transformed.K[:1] + (complex("nan"),) + transformed.K[2:])
    monkeypatch.setattr(rakns.symmetry, "moduli_transform", lambda *args: transformed)
    errs = identity_errors(data, SymmetryParams(1.0, 0.0), 2)
    assert math.isnan(errs["phase"])
    assert errs["argument"] == 0.0


# -- the affine matrix P(a, b) against the term-by-term oracles -----------------


def _rows_from_arguments(a, b, n):
    """Rows 1..n of P from the argument-map oracles: row k is (E, X, T) at
    the basis direction of x (k = 1) or t_(k-1)."""
    rows = []
    for k in range(1, n + 1):
        x, *times = (Fraction(int(i == k)) for i in range(1, n + 1))
        X, T = transform_arguments_reference(a, b, x, times)
        rows.append([2 * b * x + boost_exponent_reference(b, times), X, *T])
    return rows


def _rows_from_moduli(a, b, n):
    """Rows 1..n of P from the moduli oracle: V^m the m-th unit vector
    gives columns 1..n, and K = (1, 0, ..., 0) gives K~_j = P[j, 0] / 2."""
    V = [np.array([Fraction(int(i == m)) for i in range(n)], dtype=object) for m in range(n)]
    newV, newK = moduli_transform_reference(V, [Fraction(1)] + [Fraction(0)] * n, a, b)
    return [[2 * k, *v] for v, k in zip(newV, newK[1:])]


_dyadics = st.builds(Fraction, st.integers(-16, 16), st.sampled_from([1, 2, 4, 8]))


@settings(max_examples=60, deadline=None)
@given(_dyadics.filter(bool), _dyadics, st.integers(0, 7))
@example(Fraction(3, 2), Fraction(-5, 4), 7)
def test_affine_matrix_is_exact_on_dyadics(a, b, n):
    """At dyadic (a, b) every entry of P is exact in binary64, so P equals
    the oracles' Fraction values entry by entry."""
    P = _affine_matrix(float(a), float(b), n)
    assert P.shape == (n + 1, n + 1)
    assert list(P[0]) == [1] + [0] * n
    for rows in (_rows_from_arguments(a, b, n), _rows_from_moduli(a, b, n)):
        assert [[Fraction(v) for v in row] for row in P[1:]] == rows


def test_group_maps_match_oracles():
    """The argument map and phase factor of P, and moduli_transform, against
    the term-by-term oracles on random draws, relative to their magnitudes."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b = rng.choice([-1, 1]) * rng.uniform(0.3, 2.5), rng.uniform(-1, 1)
        M = int(rng.integers(0, 6))
        x, times = rng.uniform(-3, 3), tuple(rng.uniform(-1, 1, size=M))
        E_got, *got = _group_maps(a, b, x, times)
        want = transform_arguments_reference(a, b, x, times)
        scale = max(1.0, *np.abs([want[0], *want[1]]))
        assert np.max(np.abs(np.subtract([got[0], *got[1]], [want[0], *want[1]]))) < 1e-14 * scale
        E = 2 * b * x + boost_exponent_reference(b, times)
        assert abs(np.exp(-1j * E_got) - np.exp(-1j * E)) < 1e-14 * max(1.0, abs(E))
    for genus in (1, 2, 3):
        data = random_riemann_data(genus, 5, rng=genus)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        td = moduli_transform(data, a, b)
        V, K = moduli_transform_reference(data.V, data.K, a, b)
        for got, want in ((np.array(td.V), np.array(V)), (np.array(td.K), np.array(K))):
            assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))


def test_affine_matrix_overflows_quietly():
    """Tier-1 turns a RuntimeWarning into an error, so this also checks
    that inf, and 0 inf, in P stay quiet."""
    P = _affine_matrix(1e200, 0.0, 4)
    assert np.isinf(P[2, 2]) and not np.isfinite(P[3:, 2]).any()


@pytest.mark.parametrize("entry", [(1, 1), (2, 0), (4, 4), (3, 1)])
def test_corrupted_affine_matrix_fails_identity_check(monkeypatch, capsys, entry):
    """Both sides of the coefficient comparison come from one P, so only
    the definition check can see a wrong entry; it must fail test_09's
    cases and the CLI check."""
    build = rakns.solutions._affine_matrix

    def corrupted(a, b, n):
        P = build(a, b, n)
        if max(entry) <= n:
            P[entry] += 1e-6
        return P

    monkeypatch.setattr(rakns.solutions, "_affine_matrix", corrupted)
    monkeypatch.setattr(rakns.symmetry, "_affine_matrix", corrupted)
    for data, a, b in test_acceptance._random_cases(20):
        assert identity_errors(data, SymmetryParams(a, b), 5)["argument"] >= 1e-12, (a, b)
    with pytest.raises(AssertionError):
        test_acceptance.test_09_affine_identities()
    assert main(["identity", "check", "--a", "1.2", "--b", "0.1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
