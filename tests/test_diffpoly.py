"""Exact differential-polynomial algebra: ring laws, derivations, the
formal antiderivative, and serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakns.diffpoly import (
    DiffPoly,
    GaussianRational,
    NotExact,
    dp_antidx,
    dp_conjugate,
    dp_dx,
    dp_eval,
    dp_reduce,
    euler_derivative,
    from_json,
    gr_i_power,
    is_exact,
    jet,
    render,
    to_json,
)

psi = DiffPoly.var("psi")
psi_x = DiffPoly.var("psi", 1)
psibar = DiffPoly.var("psibar")


# -- Gaussian rationals ------------------------------------------------------


def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(2, Fraction(-1, 3))
    assert complex(a * b) == complex(a) * complex(b)
    assert complex(a + b) == complex(a) + complex(b)
    assert complex(a / b) * complex(b) == pytest.approx(complex(a))
    assert (a * a.conjugate()).is_real()


def test_i_powers_cycle():
    vals = [complex(gr_i_power(k)) for k in range(8)]
    assert vals == [1, 1j, -1, -1j, 1, 1j, -1, -1j]


fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
grs = st.builds(GaussianRational, fracs, fracs)


@given(grs, grs, grs)
def test_gr_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


# -- polynomials -------------------------------------------------------------


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = DiffPoly.zero()
    for _ in range(n_terms):
        coeff = draw(grs)
        n_factors = draw(st.integers(0, 3))
        d = {}
        for _ in range(n_factors):
            j = jet(draw(st.sampled_from(["psi", "phi", "psibar"])), draw(st.integers(0, 3)))
            d[j] = d.get(j, 0) + draw(st.integers(1, 2))
        terms = terms + DiffPoly.monomial(coeff, d)
    return terms


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + (-p) == DiffPoly.zero()


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leibniz(p, q):
    assert dp_dx(p * q) == dp_dx(p) * q + p * dp_dx(q)


def test_structural_equality_is_semantic():
    # same polynomial assembled in different orders
    a = psi * psibar + 2 * psi_x
    b = 2 * psi_x + psibar * psi
    assert a == b
    assert hash(a) == hash(b)


def test_dx_on_jet_bumps_order():
    assert dp_dx(psi) == psi_x
    assert dp_dx(psi * psi) == 2 * (psi * psi_x)


# -- antiderivative ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polys())
def test_antidx_roundtrip(p):
    """d/dx output is always exact and integrates back to p (up to the
    constant term, which d/dx kills)."""
    dp = dp_dx(p)
    assert is_exact(dp)
    q = dp_antidx(dp)
    assert dp_dx(q) == dp


@settings(max_examples=60, deadline=None)
@given(polys())
def test_euler_operator_agrees_with_antidx(p):
    """Independent oracle: the variational (Euler) derivative annihilates
    exactly the image of d/dx plus constants."""
    try:
        dp_antidx(p)
        integrable = True
    except NotExact:
        integrable = False
    assert integrable == is_exact(p)


def test_not_exact_simple():
    with pytest.raises(NotExact):
        dp_antidx(psi)  # psi itself is not a total derivative
    assert not is_exact(psi * psibar)


def test_not_exact_cyclic_case():
    # psi_xx * psibar_x integrates by parts in a loop; must terminate.
    p = DiffPoly.var("psi", 2) * DiffPoly.var("psibar", 1)
    assert not is_exact(p)
    with pytest.raises(NotExact):
        dp_antidx(p)


def test_constant_is_not_exact():
    with pytest.raises(NotExact):
        dp_antidx(DiffPoly.constant(1))


def test_antidx_known_case():
    # (psi psibar)_x = psi_x psibar + psi psibar_x
    p = psi_x * psibar + psi * DiffPoly.var("psibar", 1)
    assert dp_antidx(p) == psi * psibar


# -- reduction / conjugation -------------------------------------------------


def test_reduce_substitutes_conjugate():
    phi = DiffPoly.var("phi")
    p = psi * phi
    assert dp_reduce(p) == -(psi * psibar)


def test_reduce_handles_derivatives():
    phi_xx = DiffPoly.var("phi", 2)
    assert dp_reduce(psi * phi_xx) == -(psi * DiffPoly.var("psibar", 2))


def test_conjugate_involution():
    p = psi * psibar + DiffPoly.var("psi", 1).scale(GaussianRational(0, 1))
    assert dp_conjugate(dp_conjugate(p)) == p


# -- evaluation --------------------------------------------------------------


def test_dp_eval_matches_hand_value():
    p = psi * psi * psibar + 2 * psi_x
    jets = {jet("psi"): 1 + 2j, jet("psibar"): 1 - 2j, jet("psi", 1): 0.5j}
    expected = (1 + 2j) ** 2 * (1 - 2j) + 2 * 0.5j
    assert dp_eval(p, jets) == pytest.approx(expected)


# -- rendering / serialization -----------------------------------------------


def test_render_text():
    p = psi_x + 2 * (psi * psi * psibar)
    s = render(p, "text")
    assert "psi_x" in s and "2*" in s


def test_render_latex_has_math():
    s = render(psi * psibar, "latex")
    assert "\\psi" in s


def test_render_json_is_valid():
    s = render(psi * psibar, "json")
    assert isinstance(json.loads(s), list)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_json_roundtrip(p):
    assert from_json(to_json(p)) == p
