"""Exact differential polynomials in the jet variables of psi, phi and
their conjugates, with Gaussian-rational coefficients.

Values are immutable and all operations are pure, so everything here is
safe to share across threads.  Structural equality of canonical forms is
semantic equality: terms are fully combined and kept sorted by graded
degree, then lexicographically on their factor lists.

Canonical form is made once per result, never for intermediates: each
operation adds its terms into one {factors: coeff} dict and sorts it once
(``_from_dict``).  A matrix expression sum c [A, B] + sum c M + sum c M_x
does so per entry (``_combine``), so its products and sums are not each
made canonical on the way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

SYMBOLS = ("psi", "phi", "psibar", "phibar")
_SYMBOL_INDEX = {s: i for i, s in enumerate(SYMBOLS)}
_PHI, _PSIBAR = _SYMBOL_INDEX["phi"], _SYMBOL_INDEX["psibar"]

# Conjugation pairs psi <-> psibar, phi <-> phibar.
CONJUGATE = {"psi": "psibar", "psibar": "psi", "phi": "phibar", "phibar": "phi"}


class DiffPolyError(Exception):
    pass


class NotExact(DiffPolyError):
    """Raised when a polynomial is not a total x-derivative.

    ``remainder`` holds the irreducible part for diagnostics.
    """

    def __init__(self, remainder: "DiffPoly"):
        self.remainder = remainder
        super().__init__(f"not a total x-derivative; remainder: {remainder}")


class MissingJet(DiffPolyError):
    pass


class GaussianRational:
    """Exact complex number (a + b*i)/d with integers a, b and d.

    The triple is canonical, d > 0 and gcd(a, b, d) = 1, so equal numbers
    have equal triples and zero is (0, 0, 1).  Instances are immutable;
    ``re`` and ``im`` give the parts as ``Fraction``s.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            # 0.1 is a binary fraction, not 1/10; Fraction(1, 10) or "0.1" is exact.
            raise TypeError(f"cannot interpret float {re!r}, {im!r} as GaussianRational")
        re, im = Fraction(re), Fraction(im)
        # With re and im in lowest terms, gcd(a, b, lcm) is already 1.
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gr(other)
        d, od = self._d, other._d
        if d == od:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(
            self._a * od + other._a * d, self._b * od + other._b * d, d * od
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + (-_as_gr(other))

    def __rsub__(self, other):
        return _as_gr(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:
            return _reduced(self._a * other, self._b * other, self._d)
        if type(other) is not GaussianRational:
            other = _as_gr(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gr(other)
        c, e = other._a, other._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, od = self._a, self._b, other._d
        return _reduced(od * (a * c + b * e), od * (b * c - a * e), self._d * n)

    def conjugate(self):
        return _raw(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does.
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return _frac_str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{_frac_str(im)}*i"
        sign = "+" if im > 0 else "-"
        im = abs(im)
        im_s = "i" if im == 1 else f"{_frac_str(im)}*i"
        return f"({_frac_str(re)}{sign}{im_s})"

    __repr__ = __str__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple that is already canonical."""
    g = object.__new__(GaussianRational)
    g._a, g._b, g._d = a, b, d
    return g


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _as_gr(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _raw(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    if isinstance(x, complex):
        # Only exact small literals like 1j are expected here; 0.1j is a
        # binary fraction, not 1/10, so it is refused rather than converted.
        if x.real.is_integer() and x.imag.is_integer():
            return _raw(int(x.real), int(x.imag), 1)
    raise TypeError(f"cannot interpret {x!r} as GaussianRational")


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_MINUS_ONE = GaussianRational(-1)
GR_MINUS_I = GaussianRational(0, -1)


def gr_i_power(k: int) -> GaussianRational:
    """i**k for any integer k (negative allowed)."""
    return (GR_ONE, GR_I, GR_MINUS_ONE, GR_MINUS_I)[k % 4]


class JetVariable(NamedTuple):
    """A dependent symbol together with its x-derivative order.

    The tuple ordering (symbol index, order) is the canonicalization key
    used throughout.
    """

    sym_index: int
    order: int

    @property
    def symbol(self) -> str:
        return SYMBOLS[self.sym_index]

    def bump(self) -> "JetVariable":
        return JetVariable(self.sym_index, self.order + 1)

    def __str__(self):
        return self.symbol + ("_" + "x" * self.order if self.order else "")

    __repr__ = __str__


def jet(symbol: str, order: int = 0) -> JetVariable:
    if symbol not in _SYMBOL_INDEX:
        raise ValueError(f"unknown symbol {symbol!r}")
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    return JetVariable(_SYMBOL_INDEX[symbol], order)


# A factor list is a sorted tuple of (JetVariable, exponent) pairs; it is the
# dict key identifying a monomial up to its coefficient.
Factors = tuple


@dataclass(frozen=True)
class Monomial:
    coeff: GaussianRational
    factors: Factors

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.factors)

    @property
    def max_order(self) -> int:
        return _top_order(self.factors)

    def sort_key(self):
        return (self.degree, self.factors)

    def __str__(self):
        return _render_monomial_text(self)

    __repr__ = __str__


def _top_order(factors: Factors) -> int:
    return max(j.order for j, _ in factors) if factors else -1


def _merge_factors(fa: Factors, fb: Factors) -> Factors:
    if not fa:
        return fb
    d = dict(fa)
    for j, e in fb:
        d[j] = d.get(j, 0) + e
    return tuple(sorted(d.items()))


def _from_dict(combined: Mapping) -> "DiffPoly":
    """Canonical DiffPoly of a {factors: coeff} dict; zero coefficients drop."""
    out = [Monomial(c, f) for f, c in combined.items() if not c.is_zero()]
    out.sort(key=Monomial.sort_key)
    return DiffPoly(out, _canonical=True)


def _accumulate(acc: dict, pairs) -> dict:
    """Add (factors, coeff) pairs into acc; entries may cancel to zero."""
    for f, c in pairs:
        old = acc.get(f)
        acc[f] = c if old is None else old + c
    return acc


class DiffPoly:
    """Canonical sum of monomials; supports +, -, * and scalar multiples."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Monomial] = (), _canonical=False):
        if not _canonical:
            terms = _from_dict(_accumulate({}, ((m.factors, m.coeff) for m in terms))).terms
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    @staticmethod
    def zero() -> "DiffPoly":
        return _DP_ZERO

    @staticmethod
    def constant(c) -> "DiffPoly":
        c = _as_gr(c)
        if c.is_zero():
            return _DP_ZERO
        return DiffPoly([Monomial(c, ())], _canonical=True)

    @staticmethod
    def var(symbol: str, order: int = 0, coeff=1) -> "DiffPoly":
        c = _as_gr(coeff)
        if c.is_zero():
            return _DP_ZERO
        return DiffPoly([Monomial(c, ((jet(symbol, order), 1),))], _canonical=True)

    @staticmethod
    def monomial(coeff, factors: Mapping[JetVariable, int]) -> "DiffPoly":
        c = _as_gr(coeff)
        if c.is_zero():
            return _DP_ZERO
        facs = tuple(sorted((j, e) for j, e in factors.items() if e))
        if any(e < 0 for _, e in facs):
            raise ValueError("exponents must be positive")
        return DiffPoly([Monomial(c, facs)], _canonical=True)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=-1)

    @property
    def max_order(self) -> int:
        return max((m.max_order for m in self.terms), default=-1)

    def jets(self) -> set[JetVariable]:
        return {j for m in self.terms for j, _ in m.factors}

    def symbols(self) -> set[str]:
        return {j.symbol for j in self.jets()}

    def constant_term(self) -> GaussianRational:
        for m in self.terms:
            if not m.factors:
                return m.coeff
        return GR_ZERO

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        acc = {m.factors: m.coeff for m in self.terms}
        return _from_dict(_accumulate(acc, ((m.factors, m.coeff) for m in other.terms)))

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(
            [Monomial(-m.coeff, m.factors) for m in self.terms], _canonical=True
        )

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, complex)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        pairs = (
            (_merge_factors(a.factors, b.factors), a.coeff * b.coeff)
            for a in self.terms
            for b in other.terms
        )
        return _from_dict(_accumulate({}, pairs))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, complex)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "DiffPoly":
        c = _as_gr(c)
        if c.is_zero():
            return _DP_ZERO
        return DiffPoly(
            [Monomial(m.coeff * c, m.factors) for m in self.terms], _canonical=True
        )

    def __eq__(self, other):
        return isinstance(other, DiffPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        return render(self, "text")

    def __repr__(self):
        return f"DiffPoly({render(self, 'text')})"


_DP_ZERO = DiffPoly((), _canonical=True)


def _dx_terms(factors: Factors, coeff: GaussianRational):
    """(factors, coeff) pairs of the Leibniz expansion of d/dx of one
    monomial; each jet in turn bumps its order.  The bumped jet (s, n+1)
    sorts directly after (s, n), so each factor tuple is built by slicing
    and is canonical as built."""
    n = len(factors)
    for i, (j, e) in enumerate(factors):
        up = j.bump()
        if i + 1 < n and factors[i + 1][0] == up:
            bumped, after = (up, factors[i + 1][1] + 1), factors[i + 2 :]
        else:
            bumped, after = (up, 1), factors[i + 1 :]
        if e == 1:
            yield factors[:i] + (bumped,) + after, coeff
        else:
            yield factors[:i] + ((j, e - 1), bumped) + after, coeff * e


def dp_dx(p: DiffPoly) -> DiffPoly:
    """Total x-derivative: Leibniz over each monomial, jets bump their order."""
    acc: dict = {}
    for m in p.terms:
        _accumulate(acc, _dx_terms(m.factors, m.coeff))
    return _from_dict(acc)


def dp_dx_n(p: DiffPoly, n: int) -> DiffPoly:
    for _ in range(n):
        p = dp_dx(p)
    return p


def partial(p: DiffPoly, j: JetVariable) -> DiffPoly:
    """Formal partial derivative with respect to a single jet variable."""
    out = []
    for m in p.terms:
        for i, (jj, e) in enumerate(m.factors):
            if jj == j:
                rest = m.factors[:i] + m.factors[i + 1 :]
                if e > 1:
                    rest = _merge_factors(rest, ((j, e - 1),))
                out.append(Monomial(m.coeff * e, rest))
                break
    return DiffPoly(out)


def euler_derivative(p: DiffPoly, symbol: str) -> DiffPoly:
    """Variational derivative sum_n (-d/dx)^n d/d(symbol, n) applied to p."""
    out = _DP_ZERO
    max_n = max((j.order for j in p.jets() if j.symbol == symbol), default=-1)
    for n in range(max_n + 1):
        term = dp_dx_n(partial(p, jet(symbol, n)), n)
        out = out + (term if n % 2 == 0 else -term)
    return out


def is_exact(p: DiffPoly) -> bool:
    """Euler-operator exactness test (independent oracle for dp_antidx).

    A total x-derivative has vanishing variational derivative for every
    symbol and no constant term.
    """
    if not p.constant_term().is_zero():
        return False
    return all(euler_derivative(p, s).is_zero() for s in p.symbols())


def dp_antidx(p: DiffPoly) -> DiffPoly:
    """Anti-derivative q with dp_dx(q) == p and no constant term.

    Integrates by parts one term of the remainder at a time: a term whose
    highest-order jet (s, n) has the remainder's top order n, appears
    linearly, and is the term's only jet of order n.  Then
    (s,n) (s,n-1)^e R integrates to (s,n-1)^(e+1) R / (e+1).  When the
    remainder is d/dx of some q, that piece is a monomial of q with its
    exact coefficient, so each step removes one monomial from q: the result
    does not depend on which term is taken, and no piece repeats.  Raises
    NotExact (carrying the remainder) when no term qualifies or a piece
    would repeat.  A piece has the degree of a term of p and lower order,
    so there are finitely many, and the loop ends on any input.
    """
    remainder = {m.factors: m.coeff for m in p.terms}
    # The remainder's keys by top jet order; dicts keep insertion order.
    levels: dict[int, dict] = {}
    for f in remainder:
        levels.setdefault(_top_order(f), {})[f] = None
    result: dict = {}
    while remainder:
        n = max(levels)
        if n < 1:
            raise NotExact(_from_dict(remainder))
        for f in levels[n]:
            top = [(j, e) for j, e in f if j.order == n]
            if len(top) == 1 and top[0][1] == 1:
                break
        else:
            raise NotExact(_from_dict(remainder))
        top_jet = top[0][0]
        lower = JetVariable(top_jet.sym_index, n - 1)
        rest = tuple((j, e) for j, e in f if j != top_jet)
        e_lower = next((e for j, e in rest if j == lower), 0)
        piece = _merge_factors(rest, ((lower, 1),))
        if piece in result:
            raise NotExact(_from_dict(remainder))
        coeff = result[piece] = remainder[f] / (e_lower + 1)
        for g, c in _dx_terms(piece, coeff):
            new = remainder[g] - c if g in remainder else -c
            t = _top_order(g)
            level = levels.setdefault(t, {})
            if new.is_zero():
                del remainder[g], level[g]
                if not level:
                    del levels[t]
            else:
                remainder[g] = new
                level[g] = None
    return _from_dict(result)


def dp_reduce(p: DiffPoly) -> DiffPoly:
    """Apply the reduction phi = -psibar (so phi jets become -psibar jets).

    On psi/phi polynomials, phi_n -> psibar_n maps symbol index 1 to 2 with
    no 2 present, which keeps the order of jets, of factor lists and so of
    monomials, and merges none: the result is canonical as built."""
    bad = p.symbols() & {"psibar", "phibar"}
    if bad:
        raise ValueError(f"dp_reduce expects only psi/phi jets, found {sorted(bad)}")
    out = []
    for m in p.terms:
        odd = 0
        facs = []
        for j, e in m.factors:
            if j.sym_index == _PHI:
                odd ^= e & 1
                facs.append((JetVariable(_PSIBAR, j.order), e))
            else:
                facs.append((j, e))
        out.append(Monomial(-m.coeff if odd else m.coeff, tuple(facs)))
    return DiffPoly(out, _canonical=True)


def dp_conjugate(p: DiffPoly) -> DiffPoly:
    """Complex conjugate: conjugate coefficients, swap each jet with its bar."""
    out = []
    for m in p.terms:
        facs = tuple(sorted((jet(CONJUGATE[j.symbol], j.order), e) for j, e in m.factors))
        out.append(Monomial(m.coeff.conjugate(), facs))
    return DiffPoly(out)


def dp_eval(p: DiffPoly, jets: Mapping[JetVariable, complex]) -> complex:
    total = 0j
    for m in p.terms:
        v = complex(m.coeff)
        for j, e in m.factors:
            if j not in jets:
                raise MissingJet(f"no value supplied for jet {j}")
            v *= jets[j] ** e
        total += v
    return total


# -- 2x2 matrices over DiffPoly ---------------------------------------------


class MatrixDP:
    """Immutable 2x2 matrix with DiffPoly entries."""

    __slots__ = ("entries",)

    def __init__(self, a11, a12, a21, a22):
        object.__setattr__(
            self, "entries", ((_as_dp(a11), _as_dp(a12)), (_as_dp(a21), _as_dp(a22)))
        )

    def __setattr__(self, name, value):
        raise AttributeError("MatrixDP is immutable")

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    @staticmethod
    def zero() -> "MatrixDP":
        return MatrixDP(_DP_ZERO, _DP_ZERO, _DP_ZERO, _DP_ZERO)

    def __add__(self, other):
        return MatrixDP(
            *(self.entries[i][j] + other.entries[i][j] for i in (0, 1) for j in (0, 1))
        )

    def __sub__(self, other):
        return MatrixDP(
            *(self.entries[i][j] - other.entries[i][j] for i in (0, 1) for j in (0, 1))
        )

    def __neg__(self):
        return MatrixDP(*(-self.entries[i][j] for i in (0, 1) for j in (0, 1)))

    def __matmul__(self, other):
        a, b = self.entries, other.entries
        return MatrixDP(
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        )

    def scale(self, c) -> "MatrixDP":
        return MatrixDP(*(self.entries[i][j].scale(c) for i in (0, 1) for j in (0, 1)))

    def dx(self) -> "MatrixDP":
        return MatrixDP(*(dp_dx(self.entries[i][j]) for i in (0, 1) for j in (0, 1)))

    def is_zero(self) -> bool:
        return all(self.entries[i][j].is_zero() for i in (0, 1) for j in (0, 1))

    def __eq__(self, other):
        return isinstance(other, MatrixDP) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = [
            "[" + ", ".join(str(self.entries[i][j]) for j in (0, 1)) + "]"
            for i in (0, 1)
        ]
        return "MatrixDP(" + "; ".join(rows) + ")"


def _as_dp(x) -> DiffPoly:
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, (int, Fraction, GaussianRational, complex)):
        return DiffPoly.constant(x)
    raise TypeError(f"cannot interpret {x!r} as DiffPoly")


def _add_product(acc: dict, c, p: DiffPoly, q: DiffPoly) -> None:
    """acc += c p q, term by term."""
    for a in p.terms:
        ca, fa = a.coeff * c, a.factors
        for b in q.terms:
            f, v = _merge_factors(fa, b.factors), ca * b.coeff
            old = acc.get(f)
            acc[f] = v if old is None else old + v


def _combine(commutators=(), matrices=(), derivatives=()) -> MatrixDP:
    """sum c [A, B] + sum c M + sum c M_x over the (c, A, B) of commutators
    and the (c, M) of matrices and derivatives; c an int or a
    GaussianRational.  Each entry accumulates in one {factors: coeff} dict
    and is made canonical once."""
    entries = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        acc: dict = {}
        for c, a, b in commutators:
            for k in (0, 1):
                _add_product(acc, c, a[i, k], b[k, j])
                _add_product(acc, -c, b[i, k], a[k, j])
        for c, m in matrices:
            _accumulate(acc, ((t.factors, t.coeff * c) for t in m[i, j].terms))
        for c, m in derivatives:
            for t in m[i, j].terms:
                _accumulate(acc, _dx_terms(t.factors, t.coeff * c))
        entries.append(_from_dict(acc))
    return MatrixDP(*entries)


def mat_commutator(a: MatrixDP, b: MatrixDP) -> MatrixDP:
    """[A, B], one fused sum per entry.  The recursion forms only the
    entries it needs; the benchmark tracer still wraps this by name."""
    return _combine(commutators=((1, a, b),))


# -- rendering ---------------------------------------------------------------


def _render_coeff_text(c: GaussianRational, lead: str) -> str:
    """Coefficient prefix for a monomial with factors; '' or '-' when +-1."""
    if c == GR_ONE:
        return ""
    if c == GR_MINUS_ONE:
        return "-"
    if c == GR_I:
        return "i*"
    if c == GR_MINUS_I:
        return "-i*"
    return str(c) + "*"


def _render_monomial_text(m: Monomial) -> str:
    if not m.factors:
        return str(m.coeff)
    facs = "*".join(
        str(j) + (f"^{e}" if e > 1 else "") for j, e in m.factors
    )
    return _render_coeff_text(m.coeff, facs) + facs


_LATEX_SYMBOL = {
    "psi": r"\psi",
    "phi": r"\phi",
    "psibar": r"\psi^\ast",
    "phibar": r"\phi^\ast",
}


def _latex_frac(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return sign + r"\frac{%d}{%d}" % (abs(f.numerator), f.denominator)


def _render_coeff_latex(c: GaussianRational) -> str:
    if c == GR_ONE:
        return ""
    if c == GR_MINUS_ONE:
        return "-"
    if c == GR_I:
        return "i"
    if c == GR_MINUS_I:
        return "-i"
    if c.im == 0:
        return _latex_frac(c.re)
    if c.re == 0:
        return _latex_frac(c.im) + "i"
    sign = "+" if c.im > 0 else "-"
    return r"\left(%s%s%si\right)" % (_latex_frac(c.re), sign, _latex_frac(abs(c.im)))


def _render_monomial_latex(m: Monomial) -> str:
    if not m.factors:
        return _render_coeff_latex(m.coeff) or "1"
    parts = []
    for j, e in m.factors:
        base = _LATEX_SYMBOL[j.symbol]
        if j.order:
            sub = "x" * j.order
            if j.symbol.endswith("bar"):
                base = base[: -len(r"^\ast")] + "_{%s}" % sub + r"^\ast"
            else:
                base = base + "_{%s}" % sub
        if e > 1:
            base = base + "^{%d}" % e
        parts.append(base)
    return _render_coeff_latex(m.coeff) + "".join(parts)


def render(p: DiffPoly, format: str = "text") -> str:
    """Deterministic canonical-order rendering; json round-trips losslessly."""
    if format == "json":
        return to_json(p)
    if format not in ("text", "latex"):
        raise ValueError(f"unknown render format {format!r}")
    if p.is_zero():
        return "0"
    rm = _render_monomial_text if format == "text" else _render_monomial_latex
    pieces = [rm(m) for m in p.terms]
    out = pieces[0]
    for s in pieces[1:]:
        if s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


def to_json(p: DiffPoly) -> str:
    data = [
        {
            "coeff": [
                m.coeff.re.numerator,
                m.coeff.re.denominator,
                m.coeff.im.numerator,
                m.coeff.im.denominator,
            ],
            "factors": [[j.symbol, j.order, e] for j, e in m.factors],
        }
        for m in p.terms
    ]
    return json.dumps(data, separators=(",", ":"))


def from_json(text: str) -> DiffPoly:
    data = json.loads(text)
    terms = []
    for entry in data:
        rn, rd, im_n, im_d = entry["coeff"]
        coeff = GaussianRational(Fraction(rn, rd), Fraction(im_n, im_d))
        facs = {jet(s, o): e for s, o, e in entry["factors"]}
        terms.append(
            Monomial(coeff, tuple(sorted(facs.items())))
        )
    return DiffPoly(terms)
