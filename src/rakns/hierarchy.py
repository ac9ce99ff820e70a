"""Zero-curvature recursion for the AKNS hierarchy.

Generates the matrices V_k^0 (split into off-diagonal F_k and diagonal
D_k), the reduced scalar flows H_k with psi_{t_k} = i^k H_k(psi), the
conserved densities, and an audit of U_t - V_x + [U, V] = 0 for
U = lambda J + U0, V_k = 2 lambda V_{k-1} + V_k^0, V_0 = U.  The audit makes
one pass over the orders: W_k = -(V_k)_x + [U, V_k] has W_0 = -U_x and
W_k = 2 lambda W_{k-1} + lambda [J, V_k^0] + [U0, V_k^0] - (V_k^0)_x.
By lambda power, W_k^0 = [U0, V_k^0] - (V_k^0)_x and W_k^1 = 2 W_{k-1}^0
+ [J, V_k^0] are each one fused sum (``diffpoly._combine``), as is the
recursion's right-hand side 2 (F_k)_x + 2 [D_k, U0]; the higher powers are
2 W_{k-1}^(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .diffpoly import (
    DiffPoly,
    GaussianRational,
    MatrixDP,
    NotExact,
    _combine,
    dp_antidx,
    dp_dx,
    dp_reduce,
    gr_i_power,
    mat_commutator,
)

I = GaussianRational(0, 1)
MINUS_I = GaussianRational(0, -1)

# J = diag(-i, i), U0 = [[0, i psi], [-i phi, 0]]
J = MatrixDP(DiffPoly.constant(MINUS_I), 0, 0, DiffPoly.constant(I))
U0 = MatrixDP(0, DiffPoly.var("psi", 0, I), DiffPoly.var("phi", 0, MINUS_I), 0)


class RecursionBroken(Exception):
    """A diagonal density failed to integrate; indicates an implementation bug."""


class NonRealCoefficients(Exception):
    """A reduced flow H_k came out with a non-real coefficient."""


def _solve_offdiag(rhs: MatrixDP) -> MatrixDP:
    """Solve [J, F] = rhs for off-diagonal F.

    For F = [[0, b], [c, 0]] the commutator [J, F] is [[0, -2i b], [2i c, 0]],
    so each entry divides out a factor of +-2i.
    """
    if not (rhs[0, 0].is_zero() and rhs[1, 1].is_zero()):
        raise RecursionBroken("off-diagonal solve received a diagonal part")
    b = rhs[0, 1].scale(GaussianRational(1) / GaussianRational(0, -2))
    c = rhs[1, 0].scale(GaussianRational(1) / GaussianRational(0, 2))
    return MatrixDP(0, b, c, 0)


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
    """Run the recursion [J, V_{k+1}^0] = 2 (V_k^0)_x + 2 [V_k^0, U0]."""
    if K < 1:
        raise ValueError(f"order must be >= 1, got {K}")
    F: dict[int, MatrixDP] = {}
    D: dict[int, MatrixDP] = {}
    F[1] = _solve_offdiag(U0.dx().scale(2))
    for k in range(1, K + 2):
        comm = mat_commutator(F[k], U0)
        try:
            d11 = dp_antidx(-comm[0, 0])
        except NotExact as exc:
            raise RecursionBroken(f"diagonal density at order {k} not exact") from exc
        # A commutator is traceless, so comm[1, 1] = -comm[0, 0], and the
        # antiderivative is odd: D_22 = -D_11 with no second integration.
        D[k] = MatrixDP(d11, 0, 0, -d11)
        if k <= K:
            F[k + 1] = _solve_offdiag(_combine(commutators=((2, D[k], U0),), derivatives=((2, F[k]),)))
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
