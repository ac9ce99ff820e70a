"""Scaling-Galilean symmetry transforms of hierarchy solutions.

The two-parameter family (a, b) acts on joint solutions by the argument
map (X, T_1, T_2, ...) and the unit-modulus phase factor
exp{-2ibx - i sum_m (2b)^(m+1) t_m}; composing two transforms gives
(a1 a2, a2 b1 + b2), mirroring the affine action lambda -> a lambda + b
on the spectral parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solutions import Sampler, _powers, moduli_transform


@dataclass(frozen=True)
class SymmetryParams:
    """a != 0 scales, b boosts.  Negative a composes the scaling with a
    parity flip and is allowed."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("a must be nonzero")

    def compose(self, other: "SymmetryParams") -> "SymmetryParams":
        """Apply ``other`` after ``self``: lambda -> a2(a1 lambda + b1) + b2."""
        return SymmetryParams(self.a * other.a, other.a * self.b + other.b)


def transform_arguments(p: SymmetryParams, x, times: Sequence[float]):
    """X = a(x + sum_m C(m+1,1) (2b)^m t_m),
    T_j = a^(j+1) (t_j + sum_{m>j} C(m+1, j+1) (2b)^(m-j) t_m).

    Powers are products, so an overflowing one is inf and the samples
    built from it are non-finite, which a Field refuses."""
    times = tuple(times)
    M = len(times)
    a_pow, b2_pow = _powers(p.a, M + 1), _powers(2 * p.b, M)
    X = x + sum(math.comb(m + 1, 1) * b2_pow[m] * t for m, t in enumerate(times, start=1))
    X = p.a * X
    T = []
    for j in range(1, M + 1):
        tj = times[j - 1] + sum(
            math.comb(m + 1, j + 1) * b2_pow[m - j] * times[m - 1]
            for m in range(j + 1, M + 1)
        )
        T.append(a_pow[j + 1] * tj)
    return X, tuple(T)


def _boost_exponent(b: float, times: Sequence[float]) -> float:
    """sum_m (2b)^(m+1) t_m, the time part of the boost phase."""
    b2_pow = _powers(2 * b, len(times) + 1)
    return sum(b2_pow[m + 1] * t for m, t in enumerate(times, start=1))


def phase_factor(p: SymmetryParams, x, times: Sequence[float]):
    """exp{-2ibx - i sum_m (2b)^(m+1) t_m}; unit modulus for real input."""
    return np.exp(-2j * p.b * np.asarray(x, dtype=float) - 1j * _boost_exponent(p.b, times))


def transform_solution(s: Sampler, p: SymmetryParams) -> Sampler:
    """New joint solution a * s(X, T_1..T_M) * phase; order preserved."""
    M = s.max_order

    def fn(x, times):
        X, T = transform_arguments(p, x, times)
        return p.a * s(X, T) * phase_factor(p, x, times)

    return Sampler(fn, M, f"{s.name}~({p.a},{p.b})")


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


# -- bridge to the finite-gap moduli transform -------------------------------


def identity_errors(data, p: SymmetryParams, M: int) -> dict:
    """Coefficient-level check that the moduli transform reproduces the
    argument map and phase factor.

    Both sides are linear in (x, t_1..t_M); the comparison is per basis
    direction.  Returns max absolute errors {'argument': ..., 'phase': ...},
    NaN if any comparison is NaN.
    """
    td = moduli_transform(data, p.a, p.b)
    err_arg, err_phase = [], []
    basis = [(1.0, (0.0,) * M)] + [
        (0.0, tuple(1.0 if i == m else 0.0 for i in range(M))) for m in range(M)
    ]
    for x, times in basis:
        U_t, Phi_t = td.phases(x, times)  # transformed-data side
        U_s, Phi_s = data.phases(*transform_arguments(p, x, times))  # argument-map side
        # half the boost phase exponent: -bx - (1/2) sum (2b)^{m+1} t_m
        corr = -p.b * x - 0.5 * _boost_exponent(p.b, times)
        err_arg.append(np.max(np.abs(U_t - U_s)))
        err_phase.append(abs(Phi_t - (Phi_s + corr)))
    # np.max keeps a NaN, where max(err, nan) would drop it
    return {"argument": float(np.max(err_arg)), "phase": float(np.max(err_phase))}
