"""Exact differential-polynomial algebra: ring laws, derivations, the
formal antiderivative, and serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    antidx_reference,
    commutator_reference,
    dx_reference,
    is_exact,
    merge_reference,
    pair,
    pair_add,
    pair_conjugate,
    pair_div,
    pair_mul,
    pair_sub,
)
from rakns.diffpoly import (
    DiffPoly,
    GaussianRational,
    MatrixDP,
    NotExact,
    _add_product,
    _combine,
    _dx_terms,
    _from_dict,
    _merge_factors,
    dp_antidx,
    dp_dx,
    dp_reduce,
    euler_derivative,
    from_json,
    gr_i_power,
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
    assert (a / b) * b == a
    assert (a * a.conjugate()).is_real()


def test_i_powers_cycle():
    vals = [complex(gr_i_power(k)) for k in range(8)]
    assert vals == [1, 1j, -1, -1j, 1, 1j, -1, -1j]


def test_gr_canonical_form():
    half = GaussianRational(Fraction(2, 4))
    assert half == GaussianRational(Fraction(1, 2))
    assert hash(half) == hash(GaussianRational(Fraction(1, 2)))
    assert GaussianRational(3, 6) / 3 == GaussianRational(1, 2)
    zeros = [
        GaussianRational(),
        GaussianRational(0, 0),
        GaussianRational(Fraction(0, 7), Fraction(0, 3)),
        half - half,
        GaussianRational(Fraction(1, 3), 2) * 0,
    ]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
    assert all(z.is_zero() for z in zeros)


def test_gr_parts_are_fractions():
    a = GaussianRational(Fraction(-3, 4), 5)
    assert type(a.re) is Fraction and type(a.im) is Fraction
    assert (a.re, a.im) == (Fraction(-3, 4), Fraction(5))
    assert type(GaussianRational(2).im) is Fraction


def test_gr_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / 0


def test_inexact_complex_is_refused():
    """0.1j is a binary fraction, not 1/10; only integer parts convert."""
    with pytest.raises(TypeError):
        DiffPoly.var("psi") * 0.1j
    with pytest.raises(TypeError):
        GaussianRational(1) + complex(0.5, 1)
    with pytest.raises(TypeError):
        DiffPoly.var("psi", coeff=complex("nanj"))
    assert DiffPoly.var("psi") * 2j == DiffPoly.var("psi", coeff=GaussianRational(0, 2))
    assert GaussianRational(1) + (3 - 1j) == GaussianRational(4, -1)


def test_float_parts_are_refused():
    """GaussianRational(0.1) would be 3602879701896397/36028797018963968,
    not 1/10; floats are refused like in arithmetic, exact input is kept."""
    for re_, im_ in ((0.1, 0), (0, 0.5), (2.0, 0), (np.float64(1), 1)):
        with pytest.raises(TypeError):
            GaussianRational(re_, im_)
    for x, y in ((GaussianRational(1), 0.5), (0.5, GaussianRational(1)), (GaussianRational(1), np.float64(2))):
        with pytest.raises(TypeError, match="cannot interpret"):
            x - y
    assert GaussianRational("0.1", "-3/4") == GaussianRational(Fraction(1, 10), Fraction(-3, 4))
    assert GaussianRational(np.int64(3), True) == GaussianRational(3, 1)


fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
grs = st.builds(GaussianRational, fracs, fracs)

wide_fracs = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9)
wide_grs = st.builds(GaussianRational, wide_fracs, wide_fracs)


@given(grs, grs, grs)
def test_gr_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


def _canonical(x: GaussianRational) -> bool:
    """x equals, with the same hash, the value rebuilt from its parts."""
    y = GaussianRational(x.re, x.im)
    return x == y and hash(x) == hash(y)


@settings(max_examples=300, deadline=None)
@given(wide_grs, wide_grs)
def test_gr_matches_fraction_pairs(a, b):
    x, y = pair(a), pair(b)
    for got, want in (
        (a + b, pair_add(x, y)),
        (a - b, pair_sub(x, y)),
        (a * b, pair_mul(x, y)),
        (a.conjugate(), pair_conjugate(x)),
        (-a, pair_sub((0, 0), x)),
    ):
        assert pair(got) == want
        assert _canonical(got)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert pair(a / b) == pair_div(x, y)
        assert _canonical(a / b)
        assert (a / b) * b == a


@settings(max_examples=100, deadline=None)
@given(wide_grs, st.integers(-(10**9), 10**9))
def test_gr_mixed_with_ints(a, n):
    x = pair(a)
    assert pair(a + n) == pair(n + a) == pair_add(x, (n, 0))
    assert pair(a * n) == pair(n * a) == pair_mul(x, (n, 0))
    assert pair(n - a) == pair_sub((n, 0), x)
    assert _canonical(a * n) and _canonical(a + n)


_exact_operands = st.one_of(wide_grs, st.integers(-(10**9), 10**9), wide_fracs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_exact_operands, _exact_operands)
def test_gr_subtraction_adds_the_negation(x, y):
    """x - y subtracts the triples directly and gives the canonical triple
    of x + (-y), for each operand a GaussianRational, an int or a Fraction."""
    if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
        x = GaussianRational(x)
    got, want = x - y, x + (-y)
    assert type(got) is GaussianRational
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
    assert _canonical(got)


# -- polynomials -------------------------------------------------------------


@st.composite
def polys(draw, coeffs=grs):
    n_terms = draw(st.integers(0, 4))
    terms = DiffPoly.zero()
    for _ in range(n_terms):
        coeff = draw(coeffs)
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
    psi_xx = DiffPoly.var("psi", 2)
    # the bumped jet joins its successor's power, or is inserted before it
    x2 = psi_x * psi_x
    assert dp_dx(psi * psi * x2 * psi_x) == 2 * (psi * x2 * x2) + 3 * (psi * psi * x2 * psi_xx)
    assert dp_dx(psi * psi_xx) == psi_x * psi_xx + psi * DiffPoly.var("psi", 3)


def _canonical_factors(f) -> bool:
    """Sorted by jet, no jet twice, every exponent positive."""
    jets = [j for j, _ in f]
    return jets == sorted(set(jets)) and all(e > 0 for _, e in f)


def _is_canonical(p: DiffPoly) -> bool:
    keys = [m.sort_key() for m in p.terms]
    return (
        keys == sorted(set(keys))
        and all(not m.coeff.is_zero() and _canonical_factors(m.factors) for m in p.terms)
    )


@settings(max_examples=100, deadline=None)
@given(polys())
def test_dx_matches_sorted_merge_reference(p):
    """The slicing Leibniz rule gives the dict-and-sort one, and each factor
    tuple it emits is canonical as built."""
    assert dp_dx(p) == dx_reference(p)
    for m in p.terms:
        for f, _ in _dx_terms(m.factors, m.coeff):
            assert _canonical_factors(f)


jets = st.builds(jet, st.sampled_from(["psi", "phi", "psibar"]), st.integers(0, 3))
factor_lists = st.dictionaries(jets, st.integers(1, 3), max_size=4).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factor_lists, factor_lists)
def test_merge_factors_matches_dict_and_sort(fa, fb):
    """The sorted insertion gives the dict-and-sort merge, canonical as
    built, in either order of the operands."""
    got = _merge_factors(fa, fb)
    assert got == merge_reference(fa, fb) == _merge_factors(fb, fa)
    assert _canonical_factors(got)


scalars = st.sampled_from([1, -1, 2, GaussianRational(0, 1), GaussianRational(Fraction(1, 3), -2)])
# Gaussian integers in about half the draws, so that the accumulation's
# integer path and its gcd fallback both run.
mixed_coeffs = st.one_of(st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)), grs)
products = st.tuples(scalars, polys(mixed_coeffs), polys(mixed_coeffs))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(products, max_size=3), st.booleans())
def test_add_product_matches_mul_and_sum(terms, cancel):
    """_add_product adds c p q into one accumulator with its own coefficient
    arithmetic on the integer parts, equal to the whole products and sum;
    with ``cancel`` each product is added again with -c, and the sum must
    vanish.  DiffPoly.__mul__ merges factors with the same _merge_factors,
    and the whole-matrix oracles of the recursion multiply with it, so the
    test above against merge_reference is what keeps that step
    independent of the library."""
    acc: dict = {}
    want = DiffPoly.zero()
    for c, p, q in terms:
        _add_product(acc, c, p, q)
        want = want + (p * q).scale(c)
    if cancel:
        for c, p, q in terms:
            _add_product(acc, -c, q, p)
        want = DiffPoly.zero()
    got = _from_dict(acc)
    assert got == want and _is_canonical(got)


matrices = st.builds(MatrixDP, polys(), polys(), polys(), polys())


@settings(max_examples=40, deadline=None)
@given(matrices, matrices, scalars, scalars, scalars)
def test_combine_equals_unfused_expression(a, b, c1, c2, c3):
    """One accumulator per entry gives the expression built from whole
    products, sums and scalings.  [a, b] and [b, a] cancel when c1 == c2,
    and c3 b - c3 b always does, so zero coefficients must drop."""
    fused = _combine(
        commutators=((c1, a, b), (c2, b, a)),
        matrices=((c3, b), (-c3, b), (c1, a)),
        derivatives=((c2, b),),
    )
    want = (
        commutator_reference(a, b).scale(c1)
        + commutator_reference(b, a).scale(c2)
        + b.scale(c3)
        - b.scale(c3)
        + a.scale(c1)
        + b.dx().scale(c2)
    )
    assert fused == want
    assert all(_is_canonical(fused[i, j]) for i in (0, 1) for j in (0, 1))
    assert _combine(commutators=((c1, a, a),), matrices=((c3, b), (-c3, b))).is_zero()


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


@settings(max_examples=80, deadline=None)
@given(polys())
def test_antidx_matches_reference(p):
    """The one-pass antiderivative equals the canonical-first reference on
    exact input, and both raise NotExact on the same inputs."""
    dp = dp_dx(p)
    assert dp_antidx(dp) == antidx_reference(dp)
    outcomes = []
    for integrate in (dp_antidx, antidx_reference):
        try:
            outcomes.append(integrate(p))
        except NotExact:
            outcomes.append(NotExact)
    assert outcomes[0] == outcomes[1]


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


# -- reduction ---------------------------------------------------------------


def test_reduce_substitutes_conjugate():
    phi = DiffPoly.var("phi")
    p = psi * phi
    assert dp_reduce(p) == -(psi * psibar)


def test_reduce_handles_derivatives():
    phi_xx = DiffPoly.var("phi", 2)
    assert dp_reduce(psi * phi_xx) == -(psi * DiffPoly.var("psibar", 2))


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
