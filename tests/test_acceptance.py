"""Acceptance gate: one test per shipped guarantee, at pinned parameters
and tolerances.

One test is expected to fail and is left red deliberately; the analysis
is in this docstring:

* test_05_transformed_samplers_residual — at n=512, L=40, Delta_t=1e-5
  the pinned tolerance 1e-6 cannot be met across the full (a, b) box by
  any periodic spectral residual.  The residual returned is the correct
  residual of what is sampled; three causes each break the target in a
  different corner (worst residual per (a, b) draw of the test's seed):
  - an incommensurate boost phase exp(-2ibx) (b not on the lattice
    m*pi/L) jumps by O(1) across the seam, and xi^6 amplifies the jump in
    the fifth flow: 7e7 to 1.2e9 for the plane wave on every draw, up to
    2.4e4 for the soliton (the a ~ 0.5 soliton also has seam tails
    sech(10) ~ 9e-5);
  - with b moved onto the lattice and the soliton periodized with two
    images, the a ~ 2 soliton still reaches 1.2e-4 in the fifth flow:
    psi_6x needs xi_max ~ 50 > pi*512/40 ~ 40 to be resolved to 1e-6;
  - on the same lattice the a ~ 2 plane wave still reaches 1.2e-3 and
    5.8e-4 in the fourth flow and 2.5e-3 and 8.4e-3 in the fifth: the
    centred time difference at the pinned Delta_t on a phase rotating at
    rate ~ 20(aq)^6.  This floor is truncation: it falls fourfold each
    time Delta_t is halved.
  Widening the tolerance, redrawing (a, b) or moving b onto the lattice
  would only hide these causes.  The companion test_05_attainable_variant
  pins what the same machinery does deliver.

test_09_reduction_at_unit_scaling once asserted that at a = 1 the
transformed expansion constants collapse to K_j + 2^(j-1) b^j.  That
holds only at j = 1: at a = 1 the boost's x-shift and the lower-time
shifts of the argument map feed K_1..K_(j-1) into every higher phase,
which adds sum_{m<j} C(j,m) (2b)^(j-m) K_m (test_moduli_transform_low_orders
keeps the 4bK_1 term at j = 2, and test_09_affine_identities checks the
general formula against the argument map and phase to 1e-12).  On the
test's 20 cases the old value was off by up to 36 in absolute terms; the
test now asserts the reduction derived from the argument map.
"""

import math
import time

import numpy as np
import pytest

from rakns.cli import main as cli_main
from rakns.diffpoly import DiffPoly, GaussianRational, from_json
from rakns.evolve import Bump, FlowSpec, Linear, Sinusoid, evolve_run
from rakns.hierarchy import build_flows, scalar_H, zero_curvature_check
from rakns.solutions import (
    finite_gap_sample,
    moduli_transform,
    plane_wave,
    random_riemann_data,
    soliton,
    theta,
)
from rakns.spectral import Grid, residual, sample_onto_grid
from rakns.symmetry import (
    SymmetryParams,
    identity_errors,
    transform_solution,
)

import pathlib

from oracles import hirota_closed_form, scaling, theta_brute

GOLDEN = pathlib.Path(__file__).parent / "golden"

NLS = FlowSpec([(1, Linear(1.0))])


# -- 1: exact symbolic reproduction ------------------------------------------


def test_01_scalar_flows_match_golden(table5):
    t0 = time.monotonic()
    for k in range(1, 6):
        golden = from_json((GOLDEN / f"H{k}.json").read_text())
        assert scalar_H(table5, k) == golden, f"H_{k} deviates from transcription"
    assert time.monotonic() - t0 < 5.0


# -- 2: zero-curvature audit through order 6 ---------------------------------


def test_02_zero_curvature_audit():
    t0 = time.monotonic()
    assert cli_main(["hierarchy", "verify", "--max-order", "6"]) == 0
    table = build_flows(6)
    for k in range(1, 7):
        report = zero_curvature_check(table, k)
        assert report.passed, str(report)
    assert time.monotonic() - t0 < 60.0


# -- 3: the displayed first two matrices -------------------------------------


def test_03_generated_matrices(table5):
    I = GaussianRational(0, 1)
    psi = DiffPoly.var("psi")
    phi = DiffPoly.var("phi")
    psi_x = DiffPoly.var("psi", 1)
    phi_x = DiffPoly.var("phi", 1)

    v1 = table5.V0(1)
    assert v1[0, 0] == (psi * phi).scale(-I)
    assert v1[0, 1] == -psi_x
    assert v1[1, 0] == -phi_x
    assert v1[1, 1] == (psi * phi).scale(I)

    v2 = table5.V0(2)
    assert v2[0, 0] == psi_x * phi - phi_x * psi
    assert v2[0, 1] == (psi * psi * phi).scale(I + I) - DiffPoly.var("psi", 2, I)
    assert v2[1, 0] == -(phi * phi * psi).scale(I + I) + DiffPoly.var("phi", 2, I)
    assert v2[1, 1] == phi_x * psi - psi_x * phi


# -- 4: integrator correctness on the bright soliton -------------------------


def test_04_soliton_integration():
    t0 = time.monotonic()
    g = Grid(256, 40.0)
    f0 = sample_onto_grid(soliton(1.0), g, ())
    traj = evolve_run(f0, NLS, 1.0, 1e-3, method="ifrk4")
    ref = sample_onto_grid(soliton(1.0), g, (1.0,), t=1.0)
    assert np.max(np.abs(traj.final.values - ref.values)) < 1e-6

    m0 = abs(traj.conserved[0][0])
    mT = abs(traj.conserved[-1][0])
    assert abs(mT - m0) / m0 < 1e-8

    # fourth order: halving dt divides the error by 16 (dt large enough
    # that truncation still dominates roundoff)
    exact = sample_onto_grid(soliton(1.0), g, (0.4,), t=0.4, images=1).values
    f1 = sample_onto_grid(soliton(1.0), g, (), images=1)
    errs = [
        np.max(np.abs(evolve_run(f1, NLS, 0.4, dt, method="ifrk4").final.values - exact))
        for dt in (2e-2, 1e-2)
    ]
    ratio = errs[0] / errs[1]
    assert 13.0 < ratio < 19.0, f"convergence ratio {ratio}"
    assert time.monotonic() - t0 < 30.0


# -- 5: transformed samplers pass residual tests -----------------------------


def _flow_residual(s, grid, k, delta=1e-5, images=0):
    spec = FlowSpec([(k, Linear(1.0))])
    fields = []
    for sgn in (-1, 0, 1):
        times = [0.0] * 5
        times[k - 1] = sgn * delta
        fields.append(
            sample_onto_grid(s, grid, tuple(times), t=sgn * delta, images=images)
        )
    return residual(*fields, spec)


def test_05_transformed_samplers_residual():
    """As pinned: 10 random (a, b) in [0.5, 2] x [-0.5, 0.5], both samplers,
    every flow k <= 5, residual < 1e-6 at n=512, L=40.  Expected red; see
    the module docstring."""
    t0 = time.monotonic()
    g = Grid(512, 40.0)
    rng = np.random.default_rng(2024)
    worst = (0.0, None)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.5, 0.5)
        p = SymmetryParams(a, b)
        for base in (plane_wave(1.0), soliton(1.0)):
            s = transform_solution(base, p)
            for k in range(1, 6):
                r = _flow_residual(s, g, k)
                if r > worst[0]:
                    worst = (r, (base.name, a, b, k))
    assert time.monotonic() - t0 < 300.0
    assert worst[0] < 1e-6, (
        f"worst residual {worst[0]:.3e} at {worst[1]}; "
        "unattainable at these pinned parameters (see project notes)"
    )


def test_05_attainable_variant():
    """What the same machinery does guarantee: boosts drawn from the
    grid-commensurate lattice, decaying profiles periodized with two image
    copies, per-flow tolerances set by seam/resolution/roundoff floors."""
    g = Grid(512, 40.0)
    rng = np.random.default_rng(2024)
    lattice = [m * math.pi / g.length for m in range(-6, 7)]
    # soliton floors: seam/resolution of psi_{(k+1)x}; plane-wave floors at
    # k >= 4: the centered difference at the pinned Delta_t on a phase
    # rotating at rate ~ 20(aq)^6
    sol_tol = {1: 1e-7, 2: 1e-7, 3: 1e-6, 4: 5e-6, 5: 3e-5}
    pw_tol = {1: 1e-7, 2: 1e-6, 3: 1e-5, 4: 1e-3, 5: 1e-3}
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = lattice[rng.integers(0, len(lattice))]
        p = SymmetryParams(a, b)
        sol = transform_solution(soliton(1.0), p)
        pw = transform_solution(plane_wave(1.0), p)
        for k in range(1, 6):
            r = _flow_residual(sol, g, k, images=2)
            assert r < sol_tol[k], f"soliton flow {k}, (a,b)=({a},{b}): {r:.3e}"
            r = _flow_residual(pw, g, k)
            assert r < pw_tol[k], f"plane wave flow {k}, (a,b)=({a},{b}): {r:.3e}"


# -- 6: Hirota closed form ----------------------------------------------------


def test_06_hirota_closed_form():
    rng = np.random.default_rng(6)
    base = soliton(1.0)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.5, 0.5)
        alpha = rng.uniform(-1.5, 1.5)
        beta = rng.uniform(-1.5, 1.5)
        closed = hirota_closed_form(a, b, alpha, beta, base)
        generic = transform_solution(base, SymmetryParams(a, b))
        xs = rng.uniform(-4, 4, size=32)
        t = rng.uniform(-0.5, 0.5)
        want = generic(xs, (alpha * t, -beta * t))
        got = closed(xs, (t,))
        assert np.max(np.abs(got - want)) < 1e-12


# -- 7: Galilean boost drift --------------------------------------------------


def test_07_boost_drift():
    b = 0.25
    g = Grid(512, 80.0)
    s = transform_solution(soliton(1.0), SymmetryParams(1.0, b))
    f0 = sample_onto_grid(s, g, ())
    traj = evolve_run(f0, NLS, 1.0, 1e-3, method="ifrk4")
    peak = g.nodes[np.argmax(np.abs(traj.final.values))] - g.length / 2
    assert abs(peak - (-4 * b * 1.0)) <= g.dx


# -- 8: deformed hierarchy ----------------------------------------------------


def test_08_deformed_sinusoid():
    spec = FlowSpec([(1, Sinusoid(1.0, 1.0))])
    g = Grid(256, 40.0)
    f0 = sample_onto_grid(soliton(1.0), g, (), images=1)
    traj = evolve_run(f0, spec, 1.0, 1e-3, method="rk4")
    ref = sample_onto_grid(soliton(1.0), g, (math.sin(1.0),), t=1.0, images=1)
    assert np.max(np.abs(traj.final.values - ref.values)) < 1e-5


def test_08_disjoint_bump_composition():
    b1 = Bump(0.1, 0.9, 0.3)
    b2 = Bump(1.1, 1.9, 0.2)
    g = Grid(256, 40.0)
    f0 = sample_onto_grid(soliton(1.0), g, (), images=1)
    dt = 2.5e-4
    mixed = evolve_run(f0, FlowSpec([(1, b1), (2, b2)]), 2.0, dt, method="rk4").final
    first = evolve_run(f0, FlowSpec([(1, b1)]), 1.0, dt, method="rk4").final
    second = evolve_run(first, FlowSpec([(2, b2)]), 1.0, dt, method="rk4").final
    assert np.max(np.abs(mixed.values - second.values)) < 1e-6


# -- 9: affine moduli identities ----------------------------------------------


def _random_cases(n):
    rng = np.random.default_rng(9)
    for i in range(n):
        genus = int(rng.integers(1, 4))
        data = random_riemann_data(genus, 5, rng=rng)
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-0.5, 0.5)
        yield data, a, b


def test_09_affine_identities():
    for data, a, b in _random_cases(20):
        errs = identity_errors(data, SymmetryParams(a, b), 5)
        assert errs["argument"] < 1e-12, (a, b, errs)
        assert errs["phase"] < 1e-12, (a, b, errs)


def test_09_reduction_at_unit_scaling():
    """At a = 1 (pure boost) the transformed constants reduce to

        K~_j = K_j + 2^(j-1) b^j + sum_{m=1}^{j-1} C(j,m) (2b)^(j-m) K_m.

    From the argument map at a = 1, X = x + sum_n (n+1)(2b)^n t_n and
    T_i = t_i + sum_{n>i} C(n+1,i+1)(2b)^(n-i) t_n.  The coefficient of
    t_{j-1} in Phi = -K_1 X - sum_i K_{i+1} T_i, plus the boost phase
    -bx - (1/2) sum_n (2b)^(n+1) t_n, is -K~_j.  The x-shift carries K_1,
    and each lower T_i carries K_{i+1}, into every higher order, so the
    reduction is K_j + 2^(j-1) b^j only at j = 1."""
    for data, _, b in _random_cases(20):
        td = moduli_transform(data, 1.0, b)
        for j in range(1, 6):
            expected = (
                data.K[j]
                + 2 ** (j - 1) * b**j
                + sum(math.comb(j, m) * (2 * b) ** (j - m) * data.K[m] for m in range(1, j))
            )
            assert td.K[j] == pytest.approx(expected, rel=1e-12, abs=1e-12), (
                f"j={j}, b={b}: moduli_transform gives {td.K[j]}, "
                f"unit-scaling reduction gives {expected}"
            )


# -- 10: theta correctness -----------------------------------------------------


def _random_B(g, seed):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(g, g))
    Y = 0.5 * (S + S.T) * 0.2 + np.eye(g) * (1.2 + rng.uniform(0, 1))
    X = 0.5 * ((S @ S.T) + (S @ S.T).T) * 0.2
    return X + 1j * Y


def test_10_theta_against_brute_force():
    for g in (1, 2, 3):
        for seed in range(2):
            B = _random_B(g, 10 * g + seed)
            rng = np.random.default_rng(50 + seed)
            z = rng.normal(size=g) * 0.6 + 1j * rng.normal(size=g) * 0.25
            fast = theta(z, B)
            brute = theta_brute(z, B, radius=30)
            assert abs(fast - brute) <= 1e-12 * max(1.0, abs(brute))


def test_10_theta_function_laws():
    B = _random_B(2, 77)
    rng = np.random.default_rng(78)
    z = rng.normal(size=2) * 0.4 + 1j * rng.normal(size=2) * 0.2
    m = np.array([1.0, -2.0])
    assert abs(theta(z, B) - theta(-z, B)) < 1e-12 * abs(theta(z, B))
    assert abs(theta(z + m, B) - theta(z, B)) < 1e-11 * abs(theta(z, B))
    factor = np.exp(-2j * np.pi * (0.5 * m @ B @ m + m @ z))
    lhs = theta(z + B @ m, B)
    assert abs(lhs - factor * theta(z, B)) < 1e-10 * abs(lhs)


def test_10_finite_gap_normalization():
    for seed in (1, 2, 3):
        data = random_riemann_data(2, 5, rng=seed)
        val = finite_gap_sample(data, 0.0, ())
        assert val == pytest.approx(2.0 * data.K[0] / data.rho, rel=1e-13)


# -- 11: scaling covariance ----------------------------------------------------


def test_11_scaling_covariance():
    base = soliton(1.0)
    xs = np.linspace(-3, 3, 17)
    for n in range(1, 6):
        for q in (0.5, 2.0):
            sc = scaling(n, q, base)
            tr = transform_solution(base, SymmetryParams(q, 0.0))
            times = [0.0] * 5
            times[n - 1] = 0.17
            diff = np.max(np.abs(sc(xs, tuple(times)) - tr(xs, tuple(times))))
            assert diff < 1e-12, f"n={n}, q={q}: {diff:.3e}"
