"""Zero-curvature recursion: generated matrices, scalar flows against
golden transcriptions, structural properties, and the exact audit."""

import json
import pathlib

import pytest

from oracles import (
    antidx_reference,
    assemble_V,
    build_flows_reference,
    commutator_reference,
    curvature_residual,
    is_exact,
    parity_reference,
    quadratic_identity_reference,
    reduce_reference,
    swap_reference,
)
from rakns.diffpoly import (
    DiffPoly,
    GaussianRational,
    MatrixDP,
    dp_dx,
    dp_reduce,
    from_json,
    jet,
)
from rakns.hierarchy import (
    J,
    U0,
    CurvatureReport,
    _curvature_reports,
    _residuals,
    build_flows,
    conserved_density,
    flow_rhs,
    scalar_H,
    zero_curvature_check,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

I = GaussianRational(0, 1)
psi = DiffPoly.var("psi")
phi = DiffPoly.var("phi")
psi_x = DiffPoly.var("psi", 1)
phi_x = DiffPoly.var("phi", 1)


def test_v1_matrix(table5):
    v1 = table5.V0(1)
    assert v1[0, 0] == (psi * phi).scale(GaussianRational(0, -1))
    assert v1[0, 1] == -psi_x
    assert v1[1, 0] == -phi_x
    assert v1[1, 1] == (psi * phi).scale(I)


def test_v2_matrix(table5):
    v2 = table5.V0(2)
    assert v2[0, 0] == psi_x * phi - phi_x * psi
    assert v2[0, 1] == (psi * psi * phi).scale(GaussianRational(0, 2)) - DiffPoly.var(
        "psi", 2, I
    )
    assert v2[1, 0] == (phi * phi * psi).scale(GaussianRational(0, -2)) + DiffPoly.var(
        "phi", 2, I
    )
    assert v2[1, 1] == phi_x * psi - psi_x * phi


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scalar_flows_match_golden(table5, k):
    golden = from_json((GOLDEN / f"H{k}.json").read_text())
    assert scalar_H(table5, k) == golden


def test_golden_files_have_expected_term_counts():
    counts = {1: 2, 2: 2, 3: 6, 4: 7, 5: 16}
    for k, n in counts.items():
        data = json.loads((GOLDEN / f"H{k}.json").read_text())
        assert len(data) == n


def test_flow_leading_term(table5):
    # H_k = psi_{(k+1)x} + nonlinear terms
    for k in range(1, 6):
        h = scalar_H(table5, k)
        lead = DiffPoly.var("psi", k + 1)
        assert (h - lead).max_order <= k  # nonlinear remainder has lower order


def test_flow_coefficients_real(table5):
    for k in range(1, 6):
        assert all(m.coeff.is_real() for m in scalar_H(table5, k).terms)


def test_flow_rhs_reduction_consistency(table5):
    """phi_{t_k} must be the image of psi_{t_k} under the reduction symmetry
    (psi, phi) -> (-phi*, -psi*) of the unreduced system."""
    for k in range(1, 6):
        psi_t, phi_t = flow_rhs(table5, k)
        swapped = _swap_conjugate(psi_t)
        assert phi_t == swapped or phi_t == -swapped


def _swap_conjugate(p: DiffPoly) -> DiffPoly:
    """psi <-> phi together with complex conjugation of coefficients."""
    out = DiffPoly.zero()
    for m in p.terms:
        d = {}
        for j, e in m.factors:
            other = {"psi": "phi", "phi": "psi", "psibar": "phibar", "phibar": "psibar"}[
                j.symbol
            ]
            d[jet(other, j.order)] = e
        out = out + DiffPoly.monomial(m.coeff.conjugate(), d)
    return out


def test_diagonal_entries_are_antiderivatives(table5):
    """D_k was produced by formal integration; differentiating it back must
    give an exact polynomial (the recursion's defining relation)."""
    for k in range(1, 6):
        d = table5.D[k]
        assert is_exact(dp_dx(d[0, 0]))
        assert d[1, 1] == -d[0, 0]


def test_lower_diagonal_matches_reference_antiderivative():
    """D_22 is set to -D_11 without a second integration; integrating
    -[F_k, U0]_22 with the reference antiderivative must give it back."""
    table = build_flows(7)
    for k in range(1, 9):
        comm = commutator_reference(table.F[k], U0)
        assert antidx_reference(-comm[1, 1]) == table.D[k][1, 1]


def test_conserved_density_first_is_mass(table5):
    # rho_1 proportional to psi psibar
    rho = conserved_density(table5, 1)
    mass = DiffPoly.var("psi") * DiffPoly.var("psibar")
    assert rho == mass.scale(rho.terms[0].coeff)


def test_assemble_V_degree(table5):
    for k in range(1, 6):
        assert assemble_V(table5, k).degree == k + 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_zero_curvature(table5, k):
    report = zero_curvature_check(table5, k)
    assert report.passed, str(report)


def test_zero_curvature_negative_control(table5):
    """Corrupting one coefficient must be detected."""
    bad_F = dict(table5.F)
    bad_F[3] = bad_F[3] + table5.F[1]  # wrong order-3 matrix
    broken = type(table5)(
        max_order=table5.max_order,
        F=bad_F,
        D=dict(table5.D),
        H=dict(table5.H),
        density=dict(table5.density),
    )
    report = zero_curvature_check(broken, 2)
    assert not report.passed


@pytest.fixture(scope="module")
def table7():
    return build_flows(7)


@pytest.fixture(scope="module")
def table8():
    return build_flows(8)


def _one_pass_against_direct(table, K: int) -> list:
    """The reports of orders 1..K, after checking that each lambda
    coefficient of the one-pass R_k is the exact MatrixDP of U_t - V_x
    + [U, V] with the whole V_k of the oracle, and that each report gives
    the direct verdict at each power up to deg V_k (or deg R_k if higher)."""
    reports = list(_curvature_reports(table, K))
    for k, (R, report) in enumerate(zip(_residuals(table, K), reports, strict=True), start=1):
        direct = curvature_residual(table, k)
        powers = range(max(direct.degree, assemble_V(table, k).degree, 0) + 1)
        assert len(R) == k + 2 == len(powers)
        assert [direct.coeff(p) for p in powers] == R
        assert report.flow_order == k
        assert report.residual_by_power == {p: direct.coeff(p).is_zero() for p in powers}
    return reports


@pytest.mark.parametrize("K", range(1, 10))
def test_build_flows_matches_reference(K):
    """Every matrix, flow and density of build_flows(K), which computes one
    off-diagonal entry per order and takes the other from the swap parity,
    equals the recursion written with whole-matrix products, sums and
    scalings, reduced by substitution."""
    table = build_flows(K)
    F, D, H, density = build_flows_reference(K)
    for got, want in ((table.F, F), (table.D, D), (table.H, H), (table.density, density)):
        assert got.keys() == want.keys()
        for k in want:
            assert got[k] == want[k], k


def test_quadratic_identity_rebuilds_the_recursion():
    """Every b_k = (F_k)_12, c_k = (F_k)_21 and D_k of build_flows(K) for
    K <= 8 comes out of W^2 = -I by products alone: a second, algebraic
    route to the recursion, which never integrates, where build_flows
    integrates with dp_antidx and build_flows_reference with its own
    antiderivative."""
    b, c, d = quadratic_identity_reference(8)
    for K in range(1, 9):
        table = build_flows(K)
        for k in range(1, K + 2):
            assert (table.F[k][0, 1], table.F[k][1, 0]) == (b[k], c[k]), (K, k)
            assert table.D[k] == MatrixDP(d[k], 0, 0, -d[k]), (K, k)


def test_recursion_has_swap_parity(table8):
    """Theta(M) = tau(sigma_1 M sigma_1) with tau: psi_n <-> phi_n flips J
    and U0, so (F_k)_21 = (-1)^(k+1) tau((F_k)_12) and tau((D_k)_11) =
    (-1)^(k+1) (D_k)_11; checked with the oracle's own tau through k = 9."""
    assert parity_reference(J) == J.scale(-1)
    assert parity_reference(U0) == U0.scale(-1)
    for k in range(1, 10):
        sign = (-1) ** (k + 1)
        assert table8.F[k][1, 0] == swap_reference(table8.F[k][0, 1]).scale(sign), k
        assert swap_reference(table8.D[k][0, 0]) == table8.D[k][0, 0].scale(sign), k
        assert parity_reference(table8.F[k]) == table8.F[k].scale(sign), k
        assert parity_reference(table8.D[k]) == table8.D[k].scale(-sign), k


def test_reduce_matches_substitution(table8):
    """dp_reduce, which builds its result in canonical order without a sort,
    equals substitution of phi = -psibar on every entry of build_flows(8)."""
    for matrices in (table8.F, table8.D):
        for m in matrices.values():
            for i in (0, 1):
                for j in (0, 1):
                    assert dp_reduce(m[i, j]) == reduce_reference(m[i, j])


def test_one_pass_residual_equals_direct_formula(table8):
    """Orders 1..8 of build_flows(8), whose matrices through order 7 are
    those of build_flows(7)."""
    reports = _one_pass_against_direct(table8, 8)
    assert all(r.passed for r in reports)
    assert zero_curvature_check(table8, 8) == reports[-1]


def _corrupted(table, matrices: str, k: int, extra):
    """The table with ``extra`` added to its F or D matrix of order k."""
    parts = {"F": dict(table.F), "D": dict(table.D)}
    parts[matrices][k] = parts[matrices][k] + extra
    return type(table)(table.max_order, parts["F"], parts["D"], dict(table.H), dict(table.density))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("matrices", ["F", "D"])
def test_one_pass_negative_controls_match_direct(table7, k, matrices):
    """F_{k+1} + F_1 or D_k + D_1 in place of the true matrix: the one pass
    gives the direct residual, so it fails the same orders at the same
    lambda powers."""
    order = k + 1 if matrices == "F" else k
    broken = _corrupted(table7, matrices, order, getattr(table7, matrices)[1])
    assert not all(r.passed for r in _one_pass_against_direct(broken, 7))


def test_zero_curvature_check_refuses_out_of_range_orders(table5):
    for k in (0, 6):
        with pytest.raises(ValueError, match="out of range"):
            zero_curvature_check(table5, k)


def test_report_str_mentions_powers(table5):
    s = str(zero_curvature_check(table5, 1))
    assert "lambda^" in s and "pass" in s


def test_build_flows_rejects_bad_order():
    for K in (0, -3):
        with pytest.raises(ValueError, match=f"^order must be >= 1, got {K}$"):
            build_flows(K)


def test_out_of_range_queries(table5):
    with pytest.raises(ValueError):
        scalar_H(table5, 6)
    with pytest.raises(ValueError):
        conserved_density(table5, 7)
