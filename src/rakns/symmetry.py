"""Scaling-Galilean symmetry transforms of hierarchy solutions.

The two-parameter group (a, b) acts on the spectral parameter as
lambda -> a lambda + b, so composing two transforms gives
(a1 a2, a2 b1 + b2).  On the monomials w_j = (2 lambda)^j the action is
one lower triangular matrix P(a, b)[j, m] = C(j, m) a^m (2b)^(j-m), with
P w(lambda) = w(a lambda + b) (``solutions._affine_matrix``).  A solution's
phase Omega(lambda) = x (2 lambda) + sum_m t_m (2 lambda)^(m+1) becomes
Omega(a lambda + b), whose coefficients are P^T (0, x, t_1..t_M): the
constant term is the boost exponent E = 2bx + sum_m (2b)^(m+1) t_m, the
(2 lambda) term the argument X and the (2 lambda)^(j+1) terms T_j.  The
transformed solution is a psi(X, T) exp(-iE).  The moduli transform
pushes the same P through the finite-gap data, and ``identity_errors``
checks the two sides against each other and P against its definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solutions import Sampler, _affine_matrix, moduli_transform


@dataclass(frozen=True)
class SymmetryParams:
    """a != 0 scales, b boosts.  Negative a composes the scaling with a
    parity flip and is allowed."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        for name, value in (("a", self.a), ("b", self.b)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.a == 0:
            raise ValueError("a must be nonzero")


def _argument_map(P: np.ndarray, x, times: Sequence[float]):
    """(E, X, T) = P^T (0, x, t_1..t_M) for P with M + 2 rows: the boost
    exponent, the argument X and the tuple T.  An overflowing entry of P
    makes them inf or NaN, which ``sample_onto_grid`` lets through quietly
    for a Field to refuse."""
    c = np.asarray(times, dtype=float) @ P[2:]
    return P[1, 0] * x + c[0], P[1, 1] * x + c[1], tuple(c[2:])


def transform_solution(s: Sampler, p: SymmetryParams) -> Sampler:
    """New joint solution a * s(X, T_1..T_M) * phase; order preserved."""
    P = _affine_matrix(p.a, p.b, s.max_order + 1)

    def fn(x, times):
        E, X, T = _argument_map(P, x, times)
        return p.a * s(X, T) * np.exp(-1j * E)

    return Sampler(fn, s.max_order, f"{s.name}~({p.a},{p.b})")


# -- bridge to the finite-gap moduli transform -------------------------------


def identity_errors(data, p: SymmetryParams, M: int) -> dict:
    """Check that the moduli transform reproduces the argument map and
    phase factor, and check P against its definition.

    Both sides are linear in (x, t_1..t_M) and are compared per basis
    direction: the transformed data's phases against the data's phases at
    (X, T), less E/2.  Along the direction of x (of t_j) the transformed
    phases are V~^1 and -K~_1 (V~^(j+1) and -K~_(j+1)) themselves, bit for
    bit what ``phases`` sums from unit coefficients, so that side is read
    from the transformed data directly; the source side goes through
    ``data.phases``, which refuses an M beyond the data's flows.  As both
    sides take their coefficients from one P, this holds for any P
    (<P V, c> = <V, P^T c>), so P is also checked against
    P w(lambda) = w(a lambda + b), w_j = (2 lambda)^j, with w(a lambda + b)
    formed as products, at M + 2 points 2 lambda on the unit circle: its
    rows are polynomials of degree <= M + 1, fixed by their values there.
    That residual joins the argument error.

    Each error is max|u - v| / max(1, max|u|, max|v|) over all directions,
    so rounding stays relative as the phases grow with the order.
    Returns {'argument': ..., 'phase': ...}, NaN if any comparison is NaN.
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    td = moduli_transform(data, p.a, p.b)
    P = _affine_matrix(p.a, p.b, M + 1)
    z = np.exp(2j * np.pi * np.arange(M + 2) / (M + 2))
    # row k of P is P^T e_k, the (E, X, T) of the k-th basis direction, so
    # the columns of P[1:] give every direction at once
    E, X, *T = P[1:].T
    with np.errstate(over="ignore", invalid="ignore"):
        U_s, Phi_s = data.phases(X, T)
        U_t, Phi_t = np.array(td.V[: M + 1]), -np.array(td.K[1 : M + 2])
        Phi_s = Phi_s - E / 2
        definition = _relative(P @ np.vander(z, M + 2, True).T, np.vander(p.a * z + 2 * p.b, M + 2, True).T)
        # np.maximum keeps a NaN, where max(err, nan) would drop it
        argument = np.maximum(definition, _relative(U_t, U_s))
        return {"argument": float(argument), "phase": float(_relative(Phi_t, Phi_s))}


def _relative(u, v) -> float:
    """max|u - v| / max(1, max|u|, max|v|); NaN if u - v holds a NaN."""
    return np.abs(u - v).max() / max(1.0, np.abs(u).max(), np.abs(v).max())
