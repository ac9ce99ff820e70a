"""Zero-curvature recursion: generated matrices, scalar flows against
golden transcriptions, structural properties, and the exact audit."""

import json
import pathlib

import pytest

from oracles import antidx_reference
from rakns.diffpoly import (
    DiffPoly,
    GaussianRational,
    dp_conjugate,
    dp_dx,
    from_json,
    is_exact,
    jet,
    mat_commutator,
)
from rakns.hierarchy import (
    U0,
    CurvatureReport,
    assemble_V,
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
        comm = mat_commutator(table.F[k], U0)
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


def test_report_str_mentions_powers(table5):
    s = str(zero_curvature_check(table5, 1))
    assert "lambda^" in s and "pass" in s


def test_build_flows_rejects_bad_order():
    with pytest.raises(ValueError):
        build_flows(0)


def test_out_of_range_queries(table5):
    with pytest.raises(ValueError):
        scalar_H(table5, 6)
    with pytest.raises(ValueError):
        conserved_density(table5, 7)
