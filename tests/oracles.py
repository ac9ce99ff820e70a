"""Reference implementations that tests compare the library against."""

import math
from fractions import Fraction

import numpy as np

from rakns.diffpoly import (
    DiffPoly,
    GaussianRational,
    JetVariable,
    MatrixDP,
    Monomial,
    NotExact,
    dp_dx,
    euler_derivative,
    gr_i_power,
    jet,
)
from rakns.hierarchy import I, J, MINUS_I, U0, default_flow_table, flow_rhs
from rakns.solutions import Sampler
from rakns.spectral import compile_plan, eval_rhs, flow_plan, spectral_derivative


def theta_brute(z, B, radius: int = 30) -> complex:
    """Box-sum oracle over |n_i| <= radius (exponential cost in g), summed
    with numpy in chunks of 2**16 points."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    B = np.asarray(B, dtype=complex)
    side = (2 * radius + 1,) * len(z)
    total = 0j
    for start in range(0, math.prod(side), 2**16):
        index = np.arange(start, min(start + 2**16, math.prod(side)))
        n = np.stack(np.unravel_index(index, side), axis=1) - radius
        total += np.exp(2j * np.pi * (0.5 * np.einsum("ni,ij,nj->n", n, B, n) + n @ z)).sum()
    return complex(total)


def theta_terms_reference(lattice, z, dtype=complex) -> tuple:
    """(log scale, oscillatory sum) of Theta over ``lattice.points``, one
    exp per point and argument: the sum the lattice made before it was
    separable.  Theta(z_i) = exp(scale_i) osc_i, and the largest term of
    osc_i has modulus 1.  ``dtype=np.clongdouble`` sums in extended
    precision (Y^{-1} stays double, which only moves the shift)."""
    pi = np.zeros(1, dtype).real.dtype.type("3.14159265358979323846264338327950288")
    B = lattice.B.astype(dtype)
    m = np.real(lattice.points)
    z = np.asarray(z).astype(dtype).reshape(-1, len(B))
    c = z.imag @ np.linalg.inv(lattice.B.imag)
    k = np.rint(c)
    f, xk = c - k, z.real - k @ B.real
    Yf = f @ B.imag
    w = 2.0 * pi * (1j * xk - Yf)
    s = -pi * np.sum(f * Yf, axis=1) - 1j * pi * np.sum(k * (z.real + xk), axis=1)
    e = w @ m + 1j * pi * np.einsum("in,ij,jn->n", m, B, m) + s[:, None]
    peak = e.real.max(axis=1)
    osc = np.exp(e - peak[:, None]).sum(axis=1)
    return pi * np.sum(c * z.imag, axis=1) + peak, osc


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


def constant_reduction(h: DiffPoly, q: Fraction) -> tuple:
    """(re, im) of h on the constant field psi = psibar = q, exactly: a
    monomial with a derivative vanishes, any other is its coefficient times
    q to its degree."""
    re = im = Fraction(0)
    for m in h.terms:
        if all(j.order == 0 for j, _ in m.factors):
            power = q ** sum(e for _, e in m.factors)
            re += m.coeff.re * power
            im += m.coeff.im * power
    return re, im


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


def is_exact(p: DiffPoly) -> bool:
    """Euler-operator exactness test, independent of any integration by
    parts: a total x-derivative has no constant term and a vanishing
    variational derivative for every symbol."""
    if any(not m.factors for m in p.terms):
        return False
    return all(euler_derivative(p, s).is_zero() for s in p.symbols())


# -- matrix algebra and the recursion ---------------------------------------------


def commutator_reference(a: MatrixDP, b: MatrixDP) -> MatrixDP:
    """[A, B] as two matrix products and a difference."""
    return (a @ b) - (b @ a)


def dx_reference(p: DiffPoly) -> DiffPoly:
    """d/dx by the Leibniz rule: each jet in turn bumps its order, and the
    bumped factors are merged in a dict and sorted."""
    terms = []
    for m in p.terms:
        for j, e in m.factors:
            d = dict(m.factors)
            d[j] -= 1
            up = JetVariable(j.sym_index, j.order + 1)
            d[up] = d.get(up, 0) + 1
            terms.append(Monomial(m.coeff * e, tuple(sorted((f, n) for f, n in d.items() if n))))
    return DiffPoly(terms)


def merge_reference(fa: tuple, fb: tuple) -> tuple:
    """The factor list of a product: exponents added in a dict, then sorted."""
    d = dict(fa)
    for j, e in fb:
        d[j] = d.get(j, 0) + e
    return tuple(sorted(d.items()))


def quadratic_identity_reference(K: int) -> tuple:
    """(b, c, d) with b[k] = (F_k)_12, c[k] = (F_k)_21 for k = 0..K+1 and
    d[k] = (D_k)_11 for k = 1..K+1, by products, sums and d/dx alone, with
    no antiderivative.

    The stationary series W = J + 2 sum_(k>=0) V_k^0 (2 lambda)^(-k-1),
    with entries [[A, B], [C, -A]], obeys W^2 = -I, so A^2 + BC = -1.  With
    A = sum_n A_n lambda^(-n), A_0 = -i, this gives A_n = (1/2i)
    sum_(i+j=n; i,j>=1) (A_i A_j + B_i C_j), and (D_k)_11 = 2^k A_(k+1).
    Put in terms of A_n = 2^(1-n) d_(n-1), B_n = 2^(1-n) b_(n-1) and
    C_n = 2^(1-n) c_(n-1): d_k = -i sum_(p+q=k-1) (d_p d_q + b_p c_q).
    The off-diagonal part of [J, V_(k+1)^0] = 2 (V_k^0)_x + 2 [V_k^0, U0]
    gives b_(k+1) = i (b_k)_x + 2i d_k U0_12 and c_(k+1) = -i (c_k)_x
    + 2i d_k U0_21, each entry on its own (no swap parity)."""
    two_i = GaussianRational(0, 2)
    b, c, d = [U0[0, 1]], [U0[1, 0]], [DiffPoly.zero()]  # d_0 = 0: U0 has no diagonal
    for k in range(1, K + 2):
        b.append(dp_dx(b[k - 1]).scale(I) + (d[k - 1] * U0[0, 1]).scale(two_i))
        c.append(dp_dx(c[k - 1]).scale(MINUS_I) + (d[k - 1] * U0[1, 0]).scale(two_i))
        total = DiffPoly.zero()
        for p in range(k):
            total = total + d[p] * d[k - 1 - p] + b[p] * c[k - 1 - p]
        d.append(total.scale(MINUS_I))
    return b, c, {k: d[k] for k in range(1, K + 2)}


def build_flows_reference(K: int) -> tuple:
    """(F, D, H, density) of the recursion [J, V_{k+1}^0] = 2 (V_k^0)_x
    + 2 [V_k^0, U0] in whole-matrix operations.  Both diagonal entries of
    D_k are integrated, -[F_k, U0] by the reference antiderivative."""

    def solve_offdiag(rhs):
        # [J, F] = [[0, -2i b], [2i c, 0]] for F = [[0, b], [c, 0]]
        assert rhs[0, 0].is_zero() and rhs[1, 1].is_zero()
        half_i = GaussianRational(0, Fraction(1, 2))
        return MatrixDP(0, rhs[0, 1].scale(half_i), rhs[1, 0].scale(-half_i), 0)

    F, D = {1: solve_offdiag(U0.dx().scale(2))}, {}
    for k in range(1, K + 2):
        comm = commutator_reference(F[k], U0)
        D[k] = MatrixDP(antidx_reference(-comm[0, 0]), 0, 0, antidx_reference(-comm[1, 1]))
        if k <= K:
            F[k + 1] = solve_offdiag(F[k].dx().scale(2) + commutator_reference(D[k], U0).scale(2))
    H = {k: reduce_reference(-F[k + 1][0, 1]).scale(gr_i_power(-k)) for k in range(1, K + 1)}
    density = {k: reduce_reference(D[k][0, 0]) for k in range(1, K + 2)}
    return F, D, H, density


def reduce_reference(p: DiffPoly) -> DiffPoly:
    """phi = -psibar substituted into each monomial as a product of
    DiffPolys, one factor per unit of exponent, and the products summed."""
    out = DiffPoly.zero()
    for m in p.terms:
        term = DiffPoly.constant(m.coeff)
        for j, e in m.factors:
            assert j.symbol in ("psi", "phi")
            v = DiffPoly.var("psibar", j.order, -1) if j.symbol == "phi" else DiffPoly.var("psi", j.order)
            for _ in range(e):
                term = term * v
        out = out + term
    return out


def swap_reference(p: DiffPoly) -> DiffPoly:
    """tau: psi_n <-> phi_n, monomial by monomial through DiffPoly.monomial."""
    other = {"psi": "phi", "phi": "psi"}
    out = DiffPoly.zero()
    for m in p.terms:
        out = out + DiffPoly.monomial(m.coeff, {jet(other[j.symbol], j.order): e for j, e in m.factors})
    return out


def parity_reference(m: MatrixDP) -> MatrixDP:
    """Theta(M) = tau(sigma_1 M sigma_1), sigma_1 = [[0, 1], [1, 0]]: the
    entries swap across both diagonals and each is swapped by tau."""
    return MatrixDP(*(swap_reference(m[i, j]) for i, j in ((1, 1), (1, 0), (0, 1), (0, 0))))


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
                out[deg - pa - pb] = out[deg - pa - pb] + commutator_reference(self.coeff(pa), other.coeff(pb))
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


def rhs_terms(sources, values, grid, weights=None) -> list:
    """The weighted monomials of sum_j weights[j] P_j on the grid, one per
    monomial of each source P_j (unit weights for None), read off the
    DiffPolys themselves, not off a compiled plan: each jet by its own
    spectral derivative, each psibar factor conjugated where it is used,
    powers by repeated products.  A constant monomial gives a scalar."""
    jets: dict = {}

    def jet_values(order):
        if order not in jets:
            jets[order] = spectral_derivative(values, order, grid)
        return jets[order]

    terms = []
    for w, p in zip([1.0] * len(sources) if weights is None else weights, sources, strict=True):
        for m in p.terms:
            term = w * complex(m.coeff)
            for v, e in m.factors:
                base = np.conj(jet_values(v.order)) if v.symbol == "psibar" else jet_values(v.order)
                for _ in range(e):
                    term = term * base
            terms.append(term)
    return terms


def eval_rhs_reference(sources, values, grid, weights=None) -> np.ndarray:
    """sum_j weights[j] P_j on the grid, summed monomial by monomial."""
    out = np.zeros(grid.n, dtype=complex)
    for term in rhs_terms(sources, values, grid, weights):
        out += term
    return out


def conserved_integral_reference(density, f) -> complex:
    """Grid integral (mean times L) of one density, summed monomial by
    monomial."""
    return complex(np.mean(eval_rhs_reference([density], f.values, f.grid)) * f.grid.length)


# -- the residual's time derivative ------------------------------------------------


def fornberg_weights(z: float, x, m: int) -> np.ndarray:
    """Weights c[j, k] of the value at x[j] in the k-th derivative at z,
    k = 0..m, of the polynomial through the nodes x, by Fornberg's
    recursion, which adds the nodes one at a time (Math. Comp. 51, 1988;
    SIAM Rev. 40, 1998)."""
    c = np.zeros((len(x), m + 1))
    c[0, 0] = c1 = 1.0
    c4 = x[0] - z
    for i in range(1, len(x)):
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(min(i, m), 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(min(i, m), 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def quadratic_derivative_reference(fields) -> np.ndarray:
    """d/dt at the middle field's time of the quadratic through three fields
    at their own times, from Fornberg's weights."""
    w = fornberg_weights(fields[1].time, [f.time for f in fields], 1)[:, 1]
    return sum(wj * f.values for wj, f in zip(w, fields))


def centred_difference(f_minus, f_plus) -> np.ndarray:
    """(f+ - f-)/(t+ - t-), the time derivative residual took while it
    refused uneven steps: at equal steps it must still be this, bit for
    bit."""
    return (f_plus.values - f_minus.values) / (f_plus.time - f_minus.time)


def residual_reference(psi_t, f0, spec) -> float:
    """L-inf norm of psi_t - sum_k i^k alpha_k'(t) H_k(psi) at f0, the right
    side evaluated as residual evaluates it."""
    table = default_flow_table(max(k for k, _ in spec.entries))
    return float(np.max(np.abs(psi_t - eval_rhs(flow_plan(table, spec), f0, weights=spec.weights(f0.time)))))


# -- time stepping ----------------------------------------------------------------


def symbol_reference(spec, grid, weights) -> np.ndarray:
    """sum_k weights[k] (i xi)^(k+1), written out flow by flow; the Nyquist
    mode of an odd order is zero, as in eval_rhs."""
    mu = np.zeros(grid.n, dtype=complex)
    for w, (k, _) in zip(weights, spec.entries):
        col = (1j * grid.xi) ** (k + 1)
        if k % 2 == 0:
            col[grid.n // 2] = 0.0
        mu += w * col
    return mu


def linear_symbol_reference(spec, grid, t: float) -> np.ndarray:
    """mu(xi, t) = sum_k i^k alpha_k'(t) (i xi)^(k+1)."""
    return symbol_reference(spec, grid, [1j**k * s.derivative(t) for k, s in spec.entries])


def ifrk4_reference(table, spec, f, dt: float, steps: int) -> np.ndarray:
    """Lawson's integrating-factor RK4 with every stage in sample space: each
    stage transforms back to samples and eval_rhs transforms them again.
    The factor from t0 to t1 is exp(int mu dt), the symbol at the
    increments i^k (alpha_k(t1) - alpha_k(t0)) of the schedules' values;
    the nonlinear part takes the weights at each stage's time.  Returns
    the samples after ``steps`` steps from f.time, for any schedules."""
    grid = f.grid
    plan = compile_plan(*(table.H[k] - DiffPoly.var("psi", k + 1) for k, _ in spec.entries))

    def factor(t0, t1):
        return np.exp(symbol_reference(spec, grid, [1j**k * (s.value(t1) - s.value(t0)) for k, s in spec.entries]))

    def nhat(v, t):
        weights = [1j**k * s.derivative(t) for k, s in spec.entries]
        return np.fft.fft(eval_rhs(plan, v, grid, weights))

    v = f.values
    for i in range(steps):
        t = f.time + i * dt
        th, t1 = t + 0.5 * dt, t + dt
        e1, e2, e = factor(t, th), factor(th, t1), factor(t, t1)
        u = np.fft.fft(v)
        a = nhat(v, t)
        b = nhat(np.fft.ifft(e1 * (u + 0.5 * dt * a)), th)
        c = nhat(np.fft.ifft(e1 * u + 0.5 * dt * b), th)
        d = nhat(np.fft.ifft(e * u + dt * e2 * c), t1)
        v = np.fft.ifft(e * u + (dt / 6.0) * (e * a + 2.0 * e2 * (b + c) + d))
    return v


# -- the scaling-boost group, written out term by term ------------------------
#
# Each runs in Fraction arithmetic on Fraction input, and then is exact.


def transform_arguments_reference(a, b, x, times) -> tuple:
    """X = a(x + sum_m C(m+1,1) (2b)^m t_m),
    T_j = a^(j+1) (t_j + sum_{m>j} C(m+1, j+1) (2b)^(m-j) t_m)."""
    M = len(times)
    X = a * (x + sum(math.comb(m + 1, 1) * (2 * b) ** m * t for m, t in enumerate(times, start=1)))
    T = tuple(
        a ** (j + 1)
        * (times[j - 1] + sum(math.comb(m + 1, j + 1) * (2 * b) ** (m - j) * times[m - 1] for m in range(j + 1, M + 1)))
        for j in range(1, M + 1)
    )
    return X, T


def boost_exponent_reference(b, times):
    """sum_m (2b)^(m+1) t_m, the time part of the boost phase."""
    return sum((2 * b) ** (m + 1) * t for m, t in enumerate(times, start=1))


def moduli_transform_reference(V, K, a, b) -> tuple:
    """(V~, K~) for period vectors V^1..V^n and constants K_0..K_n:
    V~^j = sum_{m=1}^{j} 2^(j-m) C(j,m) a^m b^(j-m) V^m, K~_0 = a K_0,
    K~_j = sum_{m=1}^{j} 2^(j-m) C(j,m) a^m b^(j-m) K_m + 2^(j-1) b^j."""
    newV, newK = [], [a * K[0]]
    for j in range(1, len(V) + 1):
        v, kj = 0 * V[0], 2 ** (j - 1) * b**j
        for m in range(1, j + 1):
            c = 2 ** (j - m) * math.comb(j, m) * a**m * b ** (j - m)
            v = v + c * V[m - 1]
            kj = kj + c * K[m]
        newV.append(v)
        newK.append(kj)
    return tuple(newV), tuple(newK)


def identity_errors_reference(data, a, b, M: int) -> dict:
    """``symmetry.identity_errors`` with one ``phases`` call per side and
    basis direction, the direction's (x, t) and (E, X, T) as Python floats."""
    from rakns.solutions import _affine_matrix, moduli_transform
    from rakns.symmetry import _relative

    td = moduli_transform(data, a, b)
    P = _affine_matrix(a, b, M + 1)
    z = np.exp(2j * np.pi * np.arange(M + 2) / (M + 2))
    sides = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (x, *times), (E, X, *T) in zip(np.eye(M + 1).tolist(), P[1:].tolist()):
            (U_t, Phi_t), (U_s, Phi_s) = td.phases(x, times), data.phases(X, T)
            sides.append((U_t, U_s, Phi_t, Phi_s - E / 2))
        U_t, U_s, Phi_t, Phi_s = map(np.array, zip(*sides))
        definition = _relative(P @ np.vander(z, M + 2, True).T, np.vander(a * z + 2 * b, M + 2, True).T)
        argument = np.max([definition, _relative(U_t, U_s)])
        return {"argument": float(argument), "phase": float(_relative(Phi_t, Phi_s))}


# -- the group on one flow ray, in closed form ----------------------------------


def scaling(n: int, q: float, s: Sampler) -> Sampler:
    """Pure scaling covariance of the n-th flow: psi -> q psi(qx, q^(n+1) t)."""
    if not q > 0:
        raise ValueError("q must be positive for the pure scaling form")
    if not 1 <= n <= s.max_order:
        raise ValueError(f"sampler does not support flow {n}")

    def fn(x, times):
        t = times[n - 1]
        scaled = [0.0] * s.max_order
        scaled[n - 1] = q ** (n + 1) * t
        return q * s(q * np.asarray(x, dtype=float), tuple(scaled))

    return Sampler(fn, s.max_order, f"{s.name}~scaled({q},flow{n})")


def hirota_closed_form(a: float, b: float, alpha: float, beta: float, s: Sampler) -> Sampler:
    """Explicit Hirota-ray transform:
    a s(ax + 4[alpha-3b beta]abt, [alpha-6b beta]a^2 t, -beta a^3 t)
    * exp{-2ibx - 4i(alpha-2 beta b) b^2 t}."""
    if s.max_order < 2:
        raise ValueError("Hirota transform needs a sampler of order >= 2")

    def fn(x, times):
        t = times[0]
        x = np.asarray(x, dtype=float)
        args = [0.0] * s.max_order
        args[0] = (alpha - 6 * b * beta) * a**2 * t
        args[1] = -beta * a**3 * t
        X = a * x + 4 * (alpha - 3 * b * beta) * a * b * t
        return a * s(X, tuple(args)) * np.exp(-2j * b * x - 4j * (alpha - 2 * beta * b) * b**2 * t)

    return Sampler(fn, 1, f"{s.name}~hirota")
