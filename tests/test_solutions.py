"""Analytic samplers, Riemann theta evaluation, finite-gap sampling, and
the affine transform of spectral-curve data."""

import copy
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import rakns.solutions
from rakns.evolve import FlowSpec, Linear
from rakns.hierarchy import build_flows
from rakns.solutions import (
    NotPositiveDefinite,
    RiemannData,
    SolutionError,
    ThetaZeroDivision,
    finite_gap_sample,
    finite_gap_sampler,
    moduli_transform,
    peregrine,
    plane_wave,
    random_riemann_data,
    soliton,
    theta,
    _lattice_points,
    _plane_wave_rate,
    _soliton_rate,
    _ThetaLattice,
    _upper_gamma,
)
from rakns.spectral import Grid, residual, sample_onto_grid

from oracles import constant_reduction, sech_reduction, theta_brute, theta_terms_reference


# -- exact sampler constants -------------------------------------------------


def test_sech_reduction_matches_tail_rates():
    """Each generated H_k closes on A = sech as c_A A + c_A' A', and at the
    constants the soliton sampler takes from the tail: psi_{t_k} = i^k H_k
    against psi_t = (i omega_k A - v_k A') e^{i phi} gives c_A = i^(1-k) omega_k
    for odd k and c_A' = -i^(-k) v_k for even k, both (-1)^((k-1)//2) times
    the unit-amplitude rate."""
    table = build_flows(7)
    for k in range(1, 8):
        c = (-1) ** ((k - 1) // 2) * _soliton_rate(k, 1.0)
        assert sech_reduction(table.H[k]) == ((c, 0) if k % 2 else (0, c))


def test_plane_wave_rates():
    """Phase rates on the constant background q: 2q^2, -6q^4, 20q^6 for the
    odd flows; the even flows leave a constant field alone."""
    q = 1.7
    s = plane_wave(q)
    t = 0.13
    base = complex(s(0.0, ()))
    for k, rate in ((1, 2 * q**2), (3, -6 * q**4), (5, 20 * q**6)):
        times = [0.0] * 5
        times[k - 1] = t
        val = complex(s(0.0, times))
        assert val == pytest.approx(base * np.exp(1j * rate * t))
    for k in (2, 4):
        times = [0.0] * 5
        times[k - 1] = t
        assert complex(s(0.0, times)) == pytest.approx(base)


@pytest.mark.parametrize("q", [0.3, 1.0, 1.7, 2.9])
def test_plane_wave_rates_match_constant_reduction(q):
    """The closed-form rates against each generated H_k reduced exactly on
    the constant field psi = q (the double q, in rationals): i^k H_k(q) must
    be i omega_k q, purely imaginary, with omega_k the sampler's rate."""
    table = build_flows(8)
    for k in range(1, 9):
        re, im = constant_reduction(table.H[k], Fraction(q))
        # i^k (re + i im), by the quarter turns of i^k
        rotated = ((re, im), (-im, re), (-re, -im), (im, -re))[k % 4]
        assert rotated[0] == 0
        exact = float(rotated[1] / Fraction(q))
        assert abs(_plane_wave_rate(k, q) - exact) <= 1e-15 * abs(exact), k
        assert (exact == 0) == (k % 2 == 0)


@pytest.mark.parametrize("a", [0.7, 1.3, 2.0])
def test_soliton_flow_constants(a):
    """omega_1 = a^2, v_2 = a^2, omega_3 = -a^4, v_4 = -a^4, omega_5 = a^6."""
    s = soliton(a)
    t = 0.07
    x = np.array([0.4])

    def at(k, tval):
        times = [0.0] * 5
        times[k - 1] = tval
        return complex(s(x, times)[0])

    base = complex(s(x, ())[0])
    assert at(1, t) == pytest.approx(base * np.exp(1j * a**2 * t))
    assert at(3, t) == pytest.approx(base * np.exp(-1j * a**4 * t))
    assert at(5, t) == pytest.approx(base * np.exp(1j * a**6 * t))
    # even flows translate: s(x, t_2) = s(x - a^2 t_2, 0)
    shifted = complex(s(x - a**2 * t, ())[0])
    assert at(2, t) == pytest.approx(shifted)
    shifted4 = complex(s(x + a**4 * t, ())[0])
    assert at(4, t) == pytest.approx(shifted4)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_soliton_solves_each_flow(k):
    g = Grid(512, 60.0)
    spec = FlowSpec([(k, Linear(1.0))])
    d = 1e-5
    fields = []
    for sgn in (-1, 0, 1):
        times = [0.0] * 5
        times[k - 1] = sgn * d
        fields.append(
            sample_onto_grid(soliton(1.0), g, tuple(times), t=sgn * d, images=2)
        )
    assert residual(*fields, spec) < 1e-6


def test_soliton_far_tail_is_quiet():
    """Where |a(x - s)| > 710, cosh overflows; the sample there is 0 and no
    warning reaches the caller.  The shift reaches 2 * 3.7^4, about 375."""
    s = soliton(3.7)
    x = np.linspace(-12.0, 12.0, 97)
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for times in [(2.0, -2.0, 2.0, 2.0, -2.0), (0.0, 2.0, 0.0, -2.0, 0.0)] + list(
            rng.uniform(-2.0, 2.0, (20, 5))
        ):
            values = s(x, tuple(times))
            assert np.all(np.isfinite(values))
            assert np.all(np.abs(values) <= 3.7 * (1 + 1e-15))
    # 1/cosh where it does not overflow, to rounding
    y = np.linspace(-709.0, 709.0, 20001)
    sech = np.abs(soliton(1.0)(y, ()))
    assert np.max(np.abs(sech * np.cosh(y) - 1.0)) <= 1e-15


def test_peregrine_solves_nls():
    """i psi_t + psi_xx + 2|psi|^2 psi = 0 checked with centered finite
    differences (the 1/x^2 tails rule out a periodic spectral residual)."""
    s = peregrine()
    h = 1e-4
    xs = np.linspace(-3.0, 3.0, 41)
    for t in (-0.4, 0.0, 0.55):
        psi = s(xs, (t,))
        psi_xx = (s(xs + h, (t,)) - 2 * psi + s(xs - h, (t,))) / h**2
        psi_t = (s(xs, (t + h,)) - s(xs, (t - h,))) / (2 * h)
        res = 1j * psi_t + psi_xx + 2 * np.abs(psi) ** 2 * psi
        assert np.max(np.abs(res)) < 1e-5


def test_peregrine_peak_amplitude():
    s = peregrine()
    assert complex(s(0.0, (0.0,))) == pytest.approx(-3.0)  # 3x background
    far = complex(s(1e6, (0.0,)))
    assert abs(far) == pytest.approx(1.0, abs=1e-6)


def test_sampler_rejects_too_many_times():
    with pytest.raises(ValueError):
        soliton(1.0)(0.0, (1.0,) * 6)


@pytest.mark.parametrize("make, message", [(soliton, "amplitude a must be"), (plane_wave, "q must be")])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_samplers_refuse_non_finite_amplitude(make, message, value):
    """An infinite amplitude passed the check 'q > 0' and sampled into a
    'field contains NaN/Inf samples' error."""
    with pytest.raises(ValueError, match=f"{message} positive and finite"):
        make(value)


# -- theta -------------------------------------------------------------------


def _random_B(g, seed):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(g, g))
    Y = 0.5 * (S + S.T) * 0.2 + np.eye(g) * (1.2 + rng.uniform(0, 1))
    X = 0.3 * (S @ S.T - np.eye(g))
    X = 0.5 * (X + X.T)
    return X + 1j * Y


@pytest.mark.parametrize("g", [1, 2, 3])
def test_theta_matches_brute_force(g):
    """Also at arguments whose Gaussian centre -Y^{-1} Im z lies cells away
    from the origin and almost half a cell off the lattice, the worst case
    for the lattice fixed around the integer shift."""
    for seed in range(3):
        B = _random_B(g, seed)
        rng = np.random.default_rng(100 + seed)
        z = rng.normal(size=g) * 0.7 + 1j * rng.normal(size=g) * 0.3
        centre = rng.integers(-3, 4, size=g) + 0.49 * rng.choice([-1.0, 1.0], size=g)
        for w in (z, z.real - 1j * (B.imag @ centre)):
            fast = theta(w, B)
            brute = theta_brute(w, B, radius=12 if g == 3 else 30)
            assert abs(fast - brute) <= 1e-12 * max(1.0, abs(brute))


def test_theta_parity():
    B = _random_B(2, 5)
    z = np.array([0.3 + 0.1j, -0.2 + 0.05j])
    assert theta(z, B) == pytest.approx(theta(-z, B), rel=1e-12)


def test_theta_periodicity():
    """Theta(z + m) = Theta(z) for integer m."""
    B = _random_B(2, 6)
    z = np.array([0.14 + 0.2j, 0.5 - 0.1j])
    m = np.array([2.0, -1.0])
    assert theta(z + m, B) == pytest.approx(theta(z, B), rel=1e-11)


def test_theta_quasi_periodicity():
    """Theta(z + B m) = exp{-2 pi i (m.B.m/2 + m.z)} Theta(z)."""
    B = _random_B(2, 7)
    z = np.array([0.1 + 0.05j, -0.3 + 0.12j])
    m = np.array([1.0, -1.0])
    lhs = theta(z + B @ m, B)
    factor = np.exp(-2j * np.pi * (0.5 * m @ B @ m + m @ z))
    assert lhs == pytest.approx(factor * theta(z, B), rel=1e-10)


def test_theta_rejects_bad_matrix():
    with pytest.raises(NotPositiveDefinite):
        theta([0.0], [[1.0 - 1j]])  # Im B negative
    with pytest.raises(NotPositiveDefinite):
        theta([0.0, 0.0], [[1j, 0.5], [0.4, 1j]])  # not symmetric


def _anisotropic_B(lams, seed):
    """Riemann matrix whose Im part has eigenvalues lams in a random basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(len(lams), len(lams))))
    S = rng.normal(size=(len(lams), len(lams)))
    return 0.3 * (S + S.T) + 1j * (q * np.asarray(lams)) @ q.T


@pytest.mark.parametrize("lams", [(0.4, 4.5), (0.4, 1.5, 4.5)])
def test_theta_truncation_within_tol_of_largest_term(lams):
    """The omitted terms sum to at most tol times the largest kept term.

    Im B has condition number >= 10 and smallest eigenvalue 0.4, so the
    ellipsoid differs from a ball, and each argument puts the Gaussian
    centre at a corner of the half cell, where the truncation is worst."""
    B = _anisotropic_B(lams, seed=len(lams))
    g = len(lams)
    rng = np.random.default_rng(7)
    corners = np.indices((2,) * g).reshape(g, -1).T - 0.5
    lattices = [_ThetaLattice(B, tol) for tol in (1e-6, 1e-9, 1e-12)]
    for corner in corners[: len(corners) // 2]:  # theta is even: -corner is the same case
        centre = rng.integers(-2, 3, size=g) + corner
        z = rng.uniform(-0.5, 0.5, size=g) + 1j * (B.imag @ centre)
        brute = theta_brute(z, B, radius=10 if g == 3 else 25)
        for lattice in lattices:
            scale, osc = lattice(z)
            assert abs(osc[0] - brute * np.exp(-scale[0])) <= lattice.tol


def _corner_arguments(B, rng, cells=3, rows_per_corner=4):
    """Arguments whose Gaussian centre Y^{-1} Im z sits on a half-cell
    corner up to ``cells`` cells out, with Re z up to 40 in modulus."""
    g = len(B)
    corners = np.repeat(np.indices((2,) * g).reshape(g, -1).T - 0.5, rows_per_corner, axis=0)
    centre = rng.integers(-cells, cells + 1, size=corners.shape) + corners
    real = rng.uniform(-40.0, 40.0, size=corners.shape)
    real[:, 0] = rng.choice([-40.0, 40.0], size=len(real))
    return real + 1j * (centre @ B.imag)


def _check_against_reference(lattice, z):
    scale, osc = lattice(z)
    ref_scale, ref_osc = theta_terms_reference(lattice, z)
    assert np.abs(scale - ref_scale).max() <= 1e-12 * max(1.0, np.abs(ref_scale).max())
    # both sums are relative to the largest term, which has modulus 1
    assert np.abs(osc * np.exp(scale - ref_scale) - ref_osc).max() <= 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_separable_sum_matches_per_point_reference(g):
    """The box contraction gives the scale and the oscillatory sum of one
    exp per kept point, to 1e-12 of the largest term."""
    lams = {1: (0.4,), 2: (0.4, 4.5), 3: (0.4, 1.5, 4.5), 4: (0.4, 1.0, 2.0, 4.5)}[g]
    rng = np.random.default_rng(40 + g)
    for B in (_random_B(g, 10 + g), _anisotropic_B(lams, seed=g)):
        lattice = _ThetaLattice(B)
        _check_against_reference(lattice, _corner_arguments(B, rng, rows_per_corner=8 if g < 4 else 2))


@pytest.mark.parametrize(
    "B",
    [[[0.3 + 1000j]], np.diag([0.2 + 300j, 0.1 + 250j]), 0.1 + 30j * np.array([[1.0, 0.5], [0.5, 1.0]])],
    ids=["tau_1000", "diagonal_300", "coupled_30"],
)
def test_separable_sum_near_soliton_limit(B):
    """A large diagonal of Im B moves into the axis tables, so Q does not
    underflow where every term of the per-point sum is representable."""
    B = np.asarray(B, dtype=complex)
    _check_against_reference(_ThetaLattice(B), _corner_arguments(B, np.random.default_rng(5)))


def _coupled(scale, r, g=2):
    return 0.1 + 1j * scale * ((1 - r) * np.eye(g) + r * np.ones((g, g)))


@pytest.mark.parametrize(
    "B, lifted",
    [(_coupled(30, 0.9), True), (_coupled(300, 0.9), True), (_coupled(30, 0.9, g=3), True),
     (_coupled(1, 0.999), False)],
    ids=["coupled_30", "coupled_300", "coupled_30_genus_3", "box_28_times_the_points"],
)
def test_separable_sum_falls_back_to_per_point_sum(B, lifted, monkeypatch):
    """Large, strongly coupled Im B lifts the axis tables past the double
    range for arguments off the lattice's cells, and a thin ellipsoid has a
    box far larger than its points.  Those arguments take one exp per point
    instead, and are as accurate as the per-point sum itself: both against
    the sum in extended precision, since at |scale| up to 4e4 rounding the
    log scale alone moves the value by 1e-11."""
    per_point = []
    pointwise = _ThetaLattice._pointwise

    def counted(self, w, s):
        per_point.append(len(w))
        return pointwise(self, w, s)

    monkeypatch.setattr(_ThetaLattice, "_pointwise", counted)
    g, n = len(B), 500
    rng = np.random.default_rng(8)
    cells = rng.integers(-3, 4, size=(2 * n, g)).astype(float)
    cells[n:] += rng.uniform(-0.5, 0.5, size=(n, g))  # centres on the lattice, then off it
    z = rng.uniform(-40.0, 40.0, size=(2 * n, g)) + 1j * (cells @ B.imag)
    lattice = _ThetaLattice(B)
    scale, osc = lattice(z)
    assert 0 < sum(per_point) and (sum(per_point) < len(z)) == lifted
    exact_scale, exact_osc = theta_terms_reference(lattice, z, dtype=np.clongdouble)
    err = lambda s, o: float(np.max(np.abs(o * np.exp(s - exact_scale) - exact_osc)))
    assert err(scale, osc) <= 2 * err(*theta_terms_reference(lattice, z)) + 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_peak_over_near_points_equals_peak_over_all_points(g):
    """The largest term is taken over the points with |T m| <= 2D only.
    With the Gaussian centre on a half-cell corner, where |T f| = D is
    largest, the evaluator gives bit for bit the scale and sum it gives
    with the peak taken over every kept point: the equality is exact."""
    lams = {1: (0.4,), 2: (0.4, 4.5), 3: (0.4, 1.5, 4.5), 4: (0.4, 1.0, 2.0, 4.5)}[g]
    soliton_limit = {1: [[0.3 + 1000j]], 2: np.diag([0.2 + 300j, 0.1 + 250j])}.get(g, _coupled(30, 0.5, g))
    rng = np.random.default_rng(60 + g)
    for B in (_random_B(g, 20 + g), _anisotropic_B(lams, seed=g), _coupled(30, 0.9, g), soliton_limit):
        B = np.asarray(B, dtype=complex)
        lattice = _ThetaLattice(B)
        every = copy.copy(lattice)
        every.peak_points, every.peak_quad = lattice.points, lattice.quad.real
        assert 0 < lattice.peak_points.shape[1] <= lattice.points.shape[1]
        z = _corner_arguments(B, rng, rows_per_corner=64 // 2**g)
        for got, want in zip(lattice(z), every(z)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_lattice_points_match_filtered_box(g):
    """The Fincke-Pohst recursion finds exactly the box points in the ellipsoid."""
    rng = np.random.default_rng(g)
    for _ in range(5):
        T = np.triu(rng.normal(size=(g, g)), 1) * 0.5 + np.diag(rng.uniform(0.5, 2.0, size=g))
        r = rng.uniform(1.0, 4.0)
        # |m_i| <= r |row i of T^-1| bounds the box that holds the ellipsoid
        width = int(np.ceil(r * np.linalg.norm(np.linalg.inv(T), axis=1).max()))
        axis = np.arange(-width, width + 1)
        box = np.stack(np.meshgrid(*[axis] * g, indexing="ij"), axis=-1).reshape(-1, g)
        box = box[np.linalg.norm(box @ T.T, axis=1) <= r]
        found = _lattice_points(T, r)
        assert len(found) == len(box)
        assert {tuple(m) for m in found.astype(int)} == {tuple(m) for m in box}


def test_upper_gamma_against_quadrature():
    """Gamma(n/2, x) = integral of t^(n/2 - 1) e^-t over t > x."""
    for n in range(1, 8):
        for x in (0.3, 2.0, 9.0, 30.0):
            u = np.linspace(0.0, 12.0, 20001)  # t = x + u^2 removes the endpoint singularity
            f = 2 * u * (x + u * u) ** (n / 2 - 1) * np.exp(-(x + u * u))
            quad = (f[0] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum() + f[-1]) * (u[1] - u[0]) / 3  # Simpson
            assert _upper_gamma(n, x) == pytest.approx(quad, rel=1e-12)


@pytest.mark.parametrize("lams", [(1.5, 1.5, 1.5), (1.5, 2.0, 2.5), (1.5, 1.6, 1.7)])
def test_theta_lattice_size_genus_three(lams):
    """At lambda_min(Im B) = 1.5 and tol = 1e-12 the ellipsoid keeps at
    most 300 points; a ball with the same tail radius, padded to cover the
    half cell, needs over 1,000."""
    lattice = _ThetaLattice(_anisotropic_B(lams, seed=0), 1e-12)
    assert lattice.points.shape[1] <= 300


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-12])
def test_theta_refuses_tol_that_is_not_positive_and_finite(tol):
    """A NaN tol used to keep 9 of the 37 points of this genus-2 lattice and
    to disable the zero test; 0 or less silently became 1e-300."""
    B = _random_B(2, 0)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        theta([0.1, 0.2], B, tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        _ThetaLattice(B, tol)


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.1, -np.inf)])
def test_theta_refuses_non_finite_argument(bad):
    """A non-finite z once returned nan+nanj after numpy RuntimeWarnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="z must be finite"):
            theta(np.array([bad, 0.0]), _random_B(2, 0))


def test_theta_checks_shape_before_building_lattice(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("lattice built for a mismatched argument")

    monkeypatch.setattr(rakns.solutions, "_ThetaLattice", no_lattice)
    with pytest.raises(ValueError, match="dimension"):
        theta([0.1, 0.2, 0.3], _random_B(2, 0))


def test_theta_genus_one_series():
    """g=1 reduces to the classical one-dimensional series."""
    B = np.array([[0.3 + 1.1j]])
    z = np.array([0.2 + 0.1j])
    direct = sum(
        np.exp(2j * np.pi * (0.5 * n * n * B[0, 0] + n * z[0]))
        for n in range(-40, 41)
    )
    assert theta(z, B) == pytest.approx(complex(direct), rel=1e-13)


# -- RiemannData / finite-gap ------------------------------------------------


def test_riemann_data_json_roundtrip():
    data = random_riemann_data(2, 3, rng=11)
    back = RiemannData.from_json(data.to_json())
    assert back.genus == data.genus
    assert np.allclose(back.B, data.B)
    for u, v in zip(back.V, data.V):
        assert np.allclose(u, v)
    assert back.K == data.K
    assert np.allclose(back.Z, data.Z)
    assert back.rho == data.rho


def test_riemann_data_validation():
    with pytest.raises(ValueError):
        RiemannData(
            genus=1,
            B=np.array([[1j]]),
            V=(np.array([1.0]),),
            K=(0.0, 1.0),  # K_0 must be nonzero
            Z=np.array([0.0]),
            delta=np.array([0.0]),
            rho=1.0,
        )


def test_riemann_data_refuses_too_few_vectors_or_constants():
    """phases and moduli_transform read K_0..K_len(V); a shorter K once
    ended in an IndexError, and a negative flow count drew empty data."""
    good = random_riemann_data(2, 3, rng=3)
    with pytest.raises(ValueError, match="^K must hold K_0..K_4"):
        replace(good, K=good.K[:-1])
    with pytest.raises(ValueError, match="^V must hold"):
        replace(good, V=())
    replace(good, K=good.K + (1.0,))  # a longer K is allowed
    with pytest.raises(ValueError, match="^n_flows must be >= 0"):
        random_riemann_data(2, -1)


@pytest.mark.parametrize("field", ["B", "V", "K", "Z", "delta", "rho"])
def test_riemann_data_refuses_non_finite(field):
    """inf or NaN in any field is refused by name; NaN in Re B used to pass
    the symmetry check because nan > 1e-12 is False."""
    good = random_riemann_data(2, 2, rng=3)
    bad = {
        "B": good.B + np.array([[np.nan, 0], [0, 0]]),
        "V": (good.V[0] * np.inf,) + good.V[1:],
        "K": good.K[:1] + (complex(np.nan),) + good.K[2:],
        "Z": good.Z * np.nan,
        "delta": good.delta + np.inf,
        "rho": complex(np.inf, 0),
    }[field]
    kwargs = {f: getattr(good, f) for f in ("genus", "B", "V", "K", "Z", "delta", "rho")}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RiemannData(**{**kwargs, field: bad})


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("B", [[1j, 0.0], [0.0]], r"B must have shape \(2, 2\)"),
        ("B", np.eye(3) * 1j, r"B must have shape \(2, 2\)"),
        ("V", (np.ones(1),), r"V\[0\] must have shape \(2,\)"),
        ("Z", np.ones(3), r"Z must have shape \(2,\)"),
        ("delta", [[1.0], [2.0, 3.0]], r"delta must have shape \(2,\)"),
    ],
)
def test_riemann_data_refuses_wrong_shape(field, bad, message):
    """A ragged value or one of another length was refused in numpy's
    words ('setting an array element with a sequence', 'cannot reshape'),
    which name no field."""
    good = random_riemann_data(2, 2, rng=3)
    kwargs = {f: getattr(good, f) for f in ("genus", "B", "V", "K", "Z", "delta", "rho")}
    with pytest.raises(ValueError, match=f"^{message} for genus 2$"):
        RiemannData(**{**kwargs, field: bad})


def test_finite_gap_at_origin_argument():
    """U = 0 at x = 0, all times zero: the theta ratio collapses to
    Theta(Z) Theta(Z - Delta) / [Theta(Z - Delta) Theta(Z)] = 1, leaving
    2 K_0 / rho."""
    data = random_riemann_data(2, 4, rng=21)
    val = finite_gap_sample(data, 0.0, ())
    assert val == pytest.approx(2.0 * data.K[0] / data.rho, rel=1e-12)


def test_finite_gap_sampler_shapes():
    data = random_riemann_data(1, 2, rng=5)
    s = finite_gap_sampler(data)
    out = s(np.linspace(-1, 1, 7), (0.1, -0.05))
    assert out.shape == (7,)
    assert np.all(np.isfinite(out.view(float)))


def test_finite_gap_rejects_excess_times():
    data = random_riemann_data(1, 2, rng=5)
    with pytest.raises(ValueError):
        finite_gap_sample(data, 0.0, (0.1, 0.2, 0.3))


@pytest.mark.parametrize(
    "x, times, name",
    [(np.array([0.0, np.nan]), (0.1,), "x"), (0.5, (np.inf,), "times"), (np.zeros(4), (0.1, np.nan), "times")],
)
def test_finite_gap_refuses_non_finite_arguments(x, times, name):
    """A NaN time once sampled into numpy's 'invalid value encountered in
    divide' and a 'field contains NaN/Inf samples' error."""
    sampler = finite_gap_sampler(random_riemann_data(2, 3, rng=5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sampler(x, times)


def test_finite_gap_finite_where_each_theta_overflows():
    """Each theta of the ratio overflows on most of this grid (181 of 256
    samples came out non-finite when the thetas were formed one by one);
    the ratio itself is finite everywhere."""
    f = sample_onto_grid(finite_gap_sampler(random_riemann_data(3, 5, rng=1)), Grid(256, 40.0), ())
    assert np.all(np.isfinite(f.values.view(float)))


def test_finite_gap_no_overflow_in_denominator():
    """This data once raised a bare OverflowError from |Theta(U+Z)|."""
    f = sample_onto_grid(finite_gap_sampler(random_riemann_data(2, 5, rng=18)), Grid(256, 40.0), ())
    assert np.all(np.isfinite(f.values.view(float)))


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_finite_gap_sampler_matches_pointwise(genus):
    data = random_riemann_data(genus, 3, rng=40 + genus)
    times = (0.2, -0.1, 0.05)
    x = np.linspace(-20.0, 20.0, 101)
    batched = finite_gap_sampler(data)(x, times)
    pointwise = np.array([finite_gap_sample(data, xx, times) for xx in x])
    assert np.max(np.abs(batched - pointwise) / np.abs(pointwise)) <= 1e-12


def test_finite_gap_vanishing_denominator():
    """Genus 1: theta(1/2 + tau/2 | tau) = 0, so Z - Delta there makes the
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
    with pytest.raises(ThetaZeroDivision):
        finite_gap_sample(data, 0.3, ())
    with pytest.raises(ThetaZeroDivision):
        finite_gap_sampler(data)(np.linspace(-1.0, 1.0, 5), ())


def test_finite_gap_near_soliton_limit_samples():
    """At Im tau = 40 every term of a theta sum can be below 1e-12 while
    theta is far from zero; whether a denominator vanishes is judged
    against the largest term, not in absolute terms."""
    data = RiemannData(
        genus=1,
        B=np.array([[0.3 + 40j]]),
        V=(np.array([1.0 + 8.0j]),),
        K=(1.0, 0.3),
        Z=np.array([0.1 + 0.2j]),
        delta=np.array([0.2 - 0.1j]),
        rho=1.0,
    )
    f = sample_onto_grid(finite_gap_sampler(data), Grid(1024, 40.0), ())
    assert np.all(np.isfinite(f.values.view(float)))


# -- moduli transform --------------------------------------------------------


def test_moduli_transform_low_orders():
    """Hand-expanded j = 1, 2 cases:
    V~1 = a V1, V~2 = a^2 V2 + 4ab V1,
    K~0 = a K0, K~1 = a K1 + b, K~2 = a^2 K2 + 4ab K1 + 2 b^2."""
    data = random_riemann_data(2, 3, rng=31)
    a, b = 1.7, -0.4
    td = moduli_transform(data, a, b)
    assert np.allclose(td.V[0], a * data.V[0])
    assert np.allclose(td.V[1], a**2 * data.V[1] + 4 * a * b * data.V[0])
    assert td.K[0] == pytest.approx(a * data.K[0])
    assert td.K[1] == pytest.approx(a * data.K[1] + b)
    assert td.K[2] == pytest.approx(a**2 * data.K[2] + 4 * a * b * data.K[1] + 2 * b**2)


def test_moduli_transform_identity():
    data = random_riemann_data(2, 3, rng=32)
    td = moduli_transform(data, 1.0, 0.0)
    for u, v in zip(td.V, data.V):
        assert np.allclose(u, v)
    assert td.K == data.K


def test_moduli_transform_composition():
    """Applying (a2, b2) after (a1, b1) equals the composite map
    lambda -> a2(a1 lambda + b1) + b2."""
    data = random_riemann_data(2, 4, rng=33)
    a1, b1, a2, b2 = 1.3, 0.2, 0.7, -0.5
    once = moduli_transform(moduli_transform(data, a1, b1), a2, b2)
    combo = moduli_transform(data, a1 * a2, a2 * b1 + b2)
    for u, v in zip(once.V, combo.V):
        assert np.allclose(u, v)
    assert np.allclose(once.K, combo.K)


def test_moduli_transform_preserves_geometry():
    data = random_riemann_data(3, 2, rng=34)
    td = moduli_transform(data, 2.0, 0.3)
    assert np.array_equal(td.B, data.B)
    assert np.array_equal(td.Z, data.Z)
    assert np.array_equal(td.delta, data.delta)
    assert td.rho == data.rho


def test_moduli_transform_rejects_zero_a():
    data = random_riemann_data(1, 1, rng=35)
    with pytest.raises(ValueError):
        moduli_transform(data, 0.0, 1.0)


@pytest.mark.parametrize("a, b, name", [(math.nan, 0.5, "a"), (-math.inf, 0.5, "a"), (1.0, math.nan, "b"),
                                        (1.0, math.inf, "b")])
def test_moduli_transform_names_a_non_finite_parameter(a, b, name):
    """A NaN or infinite a or b was reported as 'V must be finite'."""
    data = random_riemann_data(1, 2, rng=35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            moduli_transform(data, a, b)
