"""Zero-curvature recursion for the AKNS hierarchy.

Generates the matrices V_k^0 (split into off-diagonal F_k and diagonal
D_k), the reduced scalar flows H_k with psi_{t_k} = i^k H_k(psi), the
conserved densities, and an audit of U_t - V_x + [U, V] = 0 for
U = lambda J + U0, V_k = 2 lambda V_{k-1} + V_k^0, V_0 = U.  The audit makes
one pass over the orders: W_k = -(V_k)_x + [U, V_k] has W_0 = -U_x and
W_k = 2 lambda W_{k-1} + lambda [J, V_k^0] + [U0, V_k^0] - (V_k^0)_x.
By lambda power, W_k^0 = [U0, V_k^0] - (V_k^0)_x and W_k^1 = 2 W_{k-1}^0
+ [J, V_k^0] are each one fused sum (``diffpoly._combine``); the higher
powers are 2 W_{k-1}^(p-1).

The recursion builds one off-diagonal chain.  Let tau swap psi_n <-> phi_n
and Theta(M) = tau(sigma_1 M sigma_1) with sigma_1 = [[0, 1], [1, 0]].
Theta(J) = -J and Theta(U0) = -U0, so Theta(F_k) = (-1)^(k+1) F_k and
Theta(D_k) = (-1)^k D_k (Ablowitz, Kaup, Newell & Segur 1974): with
b_k = (F_k)_12 and c_k = (F_k)_21, c_k = (-1)^(k+1) tau(b_k), and only
b_k and (D_k)_11 are computed.  The audit does not use the parity: it
forms all four entries of each W_k, so it checks the shortcut as well as
the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .diffpoly import (
    DiffPoly,
    GaussianRational,
    JetVariable,
    MatrixDP,
    NotExact,
    _accumulate,
    _add_product,
    _combine,
    _dx_terms,
    _from_dict,
    dp_antidx,
    dp_reduce,
    gr_i_power,
)

I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)
TWO_I = GaussianRational(0, 2)

# J = diag(-i, i), U0 = [[0, i psi], [-i phi, 0]]
J = MatrixDP(DiffPoly.constant(MINUS_I), 0, 0, DiffPoly.constant(I))
U0 = MatrixDP(0, DiffPoly.var("psi", 0, I), DiffPoly.var("phi", 0, MINUS_I), 0)


class RecursionBroken(Exception):
    """A diagonal density failed to integrate; indicates an implementation bug."""


class NonRealCoefficients(Exception):
    """A reduced flow H_k came out with a non-real coefficient."""


def _swap(p: DiffPoly, sign: int) -> DiffPoly:
    """sign * tau(p), tau swapping psi_n <-> phi_n in a psi/phi polynomial."""
    return _from_dict({
        tuple(sorted((JetVariable(1 - j.sym_index, j.order), e) for j, e in m.factors)):
            m.coeff if sign > 0 else -m.coeff
        for m in p.terms
    })


@dataclass(frozen=True)
class FlowTable:
    """Products of the recursion through order ``max_order``.

    F[k] and D[k] exist for k = 1 .. max_order+1; the reduced flows H[k]
    for k = 1 .. max_order.  V_k^0 = F[k] + D[k].
    """

    max_order: int
    F: dict = field(repr=False)
    D: dict = field(repr=False)
    H: dict = field(repr=False)
    density: dict = field(repr=False)

    def V0(self, k: int) -> MatrixDP:
        return self.F[k] + self.D[k]


def build_flows(K: int) -> FlowTable:
    """Run the recursion [J, V_{k+1}^0] = 2 (V_k^0)_x + 2 [V_k^0, U0].

    Per order, with b_k = (F_k)_12 and c_k = (F_k)_21:
    (D_k)_11 integrates -[F_k, U0]_11 = -(b_k U0_21 - U0_12 c_k), and the
    (1,2) entry of [J, F_{k+1}] = -2i b_{k+1} gives b_{k+1}
    = (2 (b_k)_x + 4 (D_k)_11 U0_12) / (-2i), starting from V_0^0 = U0.
    c_k = (-1)^(k+1) tau(b_k) by the parity in the module docstring.
    """
    if K < 1:
        raise ValueError(f"order must be >= 1, got {K}")
    F: dict[int, MatrixDP] = {}
    D: dict[int, MatrixDP] = {}
    b, d = U0[0, 1], DiffPoly.zero()  # b_0 and (D_0)_11 of V_0^0 = U0
    for k in range(1, K + 2):
        acc: dict = {}  # b_k, the division by -2i folded into the coefficients
        for t in b.terms:
            _accumulate(acc, _dx_terms(t.factors, t.coeff * I))
        _add_product(acc, TWO_I, d, U0[0, 1])
        b = _from_dict(acc)
        c = _swap(b, (-1) ** (k + 1))
        F[k] = MatrixDP(0, b, c, 0)
        acc = {}
        _add_product(acc, -1, b, U0[1, 0])
        _add_product(acc, 1, U0[0, 1], c)
        try:
            d = dp_antidx(_from_dict(acc))
        except NotExact as exc:
            raise RecursionBroken(f"diagonal density at order {k} not exact") from exc
        # [F_k, U0] is traceless and the antiderivative odd: D_22 = -D_11.
        D[k] = MatrixDP(d, 0, 0, -d)
    H = {k: _scalar_H(F, k) for k in range(1, K + 1)}
    density = {k: dp_reduce(D[k][0, 0]) for k in range(1, K + 2)}
    return FlowTable(max_order=K, F=F, D=D, H=H, density=density)


def flow_rhs(table: FlowTable, k: int) -> tuple[DiffPoly, DiffPoly]:
    """Unreduced (psi_{t_k}, phi_{t_k}) read off from the (1,2)/(2,1) entries
    of (1/2)[J, V_{k+1}^0] against U0 = [[0, i psi], [-i phi, 0]]."""
    if not 1 <= k <= table.max_order:
        raise ValueError(f"flow order {k} out of range 1..{table.max_order}")
    psi_t = -table.F[k + 1][0, 1]
    phi_t = -table.F[k + 1][1, 0]
    return psi_t, phi_t


def _scalar_H(F: dict, k: int) -> DiffPoly:
    h = dp_reduce(-F[k + 1][0, 1]).scale(gr_i_power(-k))
    bad = [m for m in h.terms if not m.coeff.is_real()]
    if bad:
        raise NonRealCoefficients(f"H_{k} has non-real terms: {bad}")
    return h


def scalar_H(table: FlowTable, k: int) -> DiffPoly:
    """Reduced flow H_k, convention psi_{t_k} = i^k H_k(psi); coefficients real."""
    if not 1 <= k <= table.max_order:
        raise ValueError(f"flow order {k} out of range 1..{table.max_order}")
    return table.H[k]


def conserved_density(table: FlowTable, k: int) -> DiffPoly:
    """Reduced (D_k)_11; its grid integral is conserved under every flow."""
    if not 1 <= k <= table.max_order + 1:
        raise ValueError(f"density order {k} out of range 1..{table.max_order + 1}")
    return table.density[k]


@dataclass(frozen=True)
class CurvatureReport:
    flow_order: int
    residual_by_power: dict  # lambda power -> bool (True when identically zero)

    @property
    def passed(self) -> bool:
        return all(self.residual_by_power.values())

    def __str__(self):
        lines = [f"zero-curvature audit, flow {self.flow_order}:"]
        for p in sorted(self.residual_by_power, reverse=True):
            ok = self.residual_by_power[p]
            lines.append(f"  lambda^{p}: {'ok' if ok else 'NONZERO'}")
        lines.append(f"  overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def zero_curvature_check(table: FlowTable, k: int) -> CurvatureReport:
    """Report, per lambda power, whether R_k = U_{t_k} + W_k vanishes
    identically, W_k = 2 lambda W_{k-1} + lambda [J, V_k^0] + [U0, V_k^0]
    - (V_k^0)_x from W_0 = -U_x: one derivative and two commutators per order."""
    if not 1 <= k <= table.max_order:
        raise ValueError(f"flow order {k} out of range 1..{table.max_order}")
    *_, report = _curvature_reports(table, k)
    return report


def _curvature_reports(table: FlowTable, K: int):
    """The CurvatureReport of each order 1..K, from one pass."""
    for k, R in enumerate(_residuals(table, K), start=1):
        yield CurvatureReport(k, {p: r.is_zero() for p, r in enumerate(R)})


def _residuals(table: FlowTable, K: int):
    """R_k for k = 1..K, by lambda power 0..k+1 (those of V_k)."""
    W = [-U0.dx(), -J.dx()]  # W_0 = -U_x
    for k in range(1, K + 1):
        v, (psi_t, phi_t) = table.V0(k), flow_rhs(table, k)
        W = [
            _combine(commutators=((1, U0, v),), derivatives=((-1, v),)),
            _combine(commutators=((1, J, v),), matrices=((2, W[0]),)),
            *(w.scale(2) for w in W[1:]),
        ]
        yield [W[0] + MatrixDP(0, psi_t.scale(I), phi_t.scale(MINUS_I), 0), *W[1:]]


@lru_cache(maxsize=8)
def default_flow_table(K: int = 5) -> FlowTable:
    """Shared immutable table for callers that only need the flows."""
    return build_flows(K)
