"""Reference implementations that tests compare the library against."""

import itertools
from fractions import Fraction

import numpy as np

from rakns.diffpoly import DiffPoly, GaussianRational, JetVariable, MatrixDP, NotExact, dp_dx, mat_commutator
from rakns.evolve import linear_symbol, symbol_columns
from rakns.hierarchy import I, J, MINUS_I, U0, flow_rhs
from rakns.spectral import compile_plan, eval_rhs, spectral_derivative


def theta_brute(z, B, radius: int = 30) -> complex:
    """Box-sum oracle over |n_i| <= radius (exponential cost in g)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    B = np.asarray(B, dtype=complex)
    g = len(z)
    total = 0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        n = np.asarray(n, dtype=float)
        total += np.exp(2j * np.pi * (0.5 * n @ B @ n + n @ z))
    return complex(total)


# -- flows on the sech profile ---------------------------------------------------
#
# Polynomials in A = sech and A' are dicts {(i, j): c} for c A^i (A')^j,
# kept with j <= 1 by (A')^2 = A^2 - A^4; d/dx uses A'' = A - 2A^3.


def _sech_reduce(p: dict) -> dict:
    out: dict = {}
    work = dict(p)
    while work:
        (i, j), c = work.popitem()
        if j >= 2:
            for di, dc in ((2, c), (4, -c)):
                work[i + di, j - 2] = work.get((i + di, j - 2), 0) + dc
        else:
            out[i, j] = out.get((i, j), 0) + c
    return {k: v for k, v in out.items() if v != 0}


def _sech_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
    return _sech_reduce(out)


def _sech_dx(p: dict) -> dict:
    out: dict = {}
    for (i, j), c in p.items():
        if i:
            out[i - 1, j + 1] = out.get((i - 1, j + 1), 0) + c * i
        if j:  # j is 1 in reduced form
            for di, dc in ((1, c), (3, -2 * c)):
                out[i + di, j - 1] = out.get((i + di, j - 1), 0) + dc
    return _sech_reduce(out)


def sech_reduction(h: DiffPoly) -> tuple:
    """(c_A, c_A') with h(A) = c_A A + c_A' A' on the real profile A = sech,
    exactly; raises AssertionError if another monomial survives."""
    jets = [{(1, 0): Fraction(1)}]
    for _ in range(h.max_order):
        jets.append(_sech_dx(jets[-1]))
    total: dict = {}
    for m in h.terms:
        assert m.coeff.im == 0, "sech reduction expects real coefficients"
        term = {(0, 0): m.coeff.re}
        for j, e in m.factors:
            for _ in range(e):
                term = _sech_mul(term, jets[j.order])
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    total = {k: v for k, v in total.items() if v != 0}
    assert set(total) <= {(1, 0), (0, 1)}, f"sech ansatz does not close: {total}"
    return total.get((1, 0), 0), total.get((0, 1), 0)


# -- Gaussian rationals as (re, im) pairs of Fractions --------------------------


def pair(x: GaussianRational) -> tuple:
    return (x.re, x.im)


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    if n == 0:
        raise ZeroDivisionError("division by zero pair")
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def pair_conjugate(x):
    return (x[0], -x[1])


# -- antiderivative ---------------------------------------------------------------


def antidx_reference(p: DiffPoly) -> DiffPoly:
    """Canonical-first integration by parts on whole canonical remainders.

    Each step takes the first monomial, in canonical order, whose
    highest-order jet has the global maximum order, appears linearly, and
    is the monomial's only jet of that order; it subtracts d/dx of that
    monomial's integral from the whole remainder.  A remainder seen before
    (a cycle) or no such monomial raises NotExact.
    """
    result = DiffPoly.zero()
    remainder = p
    seen: set = set()
    while not remainder.is_zero():
        n = remainder.max_order
        if n < 1 or remainder.terms in seen:
            raise NotExact(remainder)
        seen.add(remainder.terms)
        candidate = None
        for m in remainder.terms:
            top = [(j, e) for j, e in m.factors if j.order == n]
            if len(top) == 1 and top[0][1] == 1:
                candidate = m
                break
        if candidate is None:
            raise NotExact(remainder)
        top_jet = top[0][0]
        lower = JetVariable(top_jet.sym_index, n - 1)
        rest = {j: e for j, e in candidate.factors if j != top_jet}
        e_lower = rest.get(lower, 0)
        # (s,n)*(s,n-1)^e * R  integrates to  (s,n-1)^(e+1) * R / (e+1)
        piece = DiffPoly.monomial(
            candidate.coeff / GaussianRational(e_lower + 1),
            {**rest, lower: e_lower + 1},
        )
        result = result + piece
        remainder = remainder - dp_dx(piece)
    return result


# -- zero-curvature audit ---------------------------------------------------------


class LambdaMatrixPoly:
    """Polynomial in the spectral parameter with MatrixDP coefficients,
    ``coeffs`` highest power first with a nonzero leading coefficient (the
    zero polynomial has none)."""

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> MatrixDP:
        idx = self.degree - power
        return MatrixDP.zero() if idx < 0 or power < 0 else self.coeffs[idx]

    def _padded(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return zip(*((MatrixDP.zero(),) * (n - len(p.coeffs)) + p.coeffs for p in (self, other)))

    def __add__(self, other):
        return LambdaMatrixPoly(x + y for x, y in self._padded(other))

    def __sub__(self, other):
        return LambdaMatrixPoly(x - y for x, y in self._padded(other))

    def shift_lambda(self) -> "LambdaMatrixPoly":
        """Multiply by lambda."""
        return LambdaMatrixPoly(self.coeffs + (MatrixDP.zero(),) if self.coeffs else ())

    def scale(self, c) -> "LambdaMatrixPoly":
        return LambdaMatrixPoly(m.scale(c) for m in self.coeffs)

    def dx(self) -> "LambdaMatrixPoly":
        return LambdaMatrixPoly(m.dx() for m in self.coeffs)

    def commutator(self, other: "LambdaMatrixPoly") -> "LambdaMatrixPoly":
        """Convolution over lambda powers of the matrix commutator."""
        deg = self.degree + other.degree
        out = [MatrixDP.zero() for _ in range(deg + 1)]
        for pa in range(self.degree + 1):
            for pb in range(other.degree + 1):
                out[deg - pa - pb] = out[deg - pa - pb] + mat_commutator(self.coeff(pa), other.coeff(pb))
        return LambdaMatrixPoly(out)


def assemble_V(table, k: int) -> LambdaMatrixPoly:
    """V_k via V_1 = 2 lambda U + V_1^0, V_{k+1} = 2 lambda V_k + V_{k+1}^0."""
    V = LambdaMatrixPoly([J, U0])
    for j in range(1, k + 1):
        V = V.shift_lambda().scale(2) + LambdaMatrixPoly([table.V0(j)])
    return V


def curvature_residual(table, k: int) -> LambdaMatrixPoly:
    """U_{t_k} - d/dx V_k + [U, V_k] by the direct formula, from the whole
    V_k of assemble_V."""
    psi_t, phi_t = flow_rhs(table, k)
    U_t = LambdaMatrixPoly([MatrixDP(0, psi_t.scale(I), phi_t.scale(MINUS_I), 0)])
    V = assemble_V(table, k)
    return U_t - V.dx() + LambdaMatrixPoly([J, U0]).commutator(V)


# -- compiled evaluation ----------------------------------------------------------


def rhs_terms(plan, values, grid, weights=None) -> list:
    """The weighted monomials of an EvalPlan on the grid, one per monomial,
    by the per-monomial loop: each jet by its own spectral derivative, each
    psibar factor conjugated where it is used, powers by repeated products.
    A constant monomial gives a scalar."""
    jets = {o: spectral_derivative(values, o, grid) for o in (0,) + plan.orders}
    coeffs = plan.matrix.sum(axis=1) if weights is None else plan.matrix @ np.asarray(weights)
    terms = []
    for c, facs in zip(coeffs, plan.factors):
        term = c
        for conj, o, e in facs:
            base = np.conj(jets[o]) if conj else jets[o]
            for _ in range(e):
                term = term * base
        terms.append(term)
    return terms


def eval_rhs_reference(plan, values, grid, weights=None) -> np.ndarray:
    """sum_j weights[j] P_j on the grid, summed monomial by monomial."""
    out = np.zeros(grid.n, dtype=complex)
    for term in rhs_terms(plan, values, grid, weights):
        out += term
    return out


# -- time stepping ----------------------------------------------------------------


def ifrk4_reference(table, spec, f, dt: float, steps: int) -> np.ndarray:
    """Integrating-factor RK4 with every stage in sample space: each stage
    transforms back to samples and eval_rhs transforms them again.  Returns
    the samples after ``steps`` steps of a constant-coefficient spec."""
    grid = f.grid
    plan = compile_plan(*(table.H[k] - DiffPoly.var("psi", k + 1) for k, _ in spec.entries))
    w = spec.weights(0.0)
    e = np.exp(0.5 * dt * linear_symbol(spec, 0.0, symbol_columns(spec, grid)))
    e2 = e * e

    def nhat(v):
        return np.fft.fft(eval_rhs(plan, v, grid, w))

    v = f.values
    for _ in range(steps):
        u = np.fft.fft(v)
        a = nhat(v)
        b = nhat(np.fft.ifft(e * (u + 0.5 * dt * a)))
        c = nhat(np.fft.ifft(e * u + 0.5 * dt * b))
        d = nhat(np.fft.ifft(e2 * u + dt * e * c))
        v = np.fft.ifft(e2 * u + (dt / 6.0) * (e2 * a + 2.0 * e * (b + c) + d))
    return v
