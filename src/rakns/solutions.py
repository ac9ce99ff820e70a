"""Analytic multi-time solution samplers and the algebro-geometric
machinery: general-genus theta evaluation, the finite-gap sampler, and
the affine transform of the spectral-curve moduli."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np


class SolutionError(Exception):
    pass


class NotPositiveDefinite(SolutionError):
    pass


class ThetaZeroDivision(SolutionError):
    pass


@dataclass(frozen=True)
class Sampler:
    """Joint solution psi(x, t_1..t_M); callable on scalar or array x."""

    fn: Callable
    max_order: int
    name: str

    def __call__(self, x, times: Sequence[float] = ()):
        times = tuple(times)
        if len(times) > self.max_order:
            raise ValueError(
                f"sampler {self.name!r} declares order {self.max_order}, "
                f"got {len(times)} times"
            )
        times = times + (0.0,) * (self.max_order - len(times))
        return self.fn(np.asarray(x, dtype=float), times)


def plane_wave(q: float, M: int = 5) -> Sampler:
    """Constant-modulus background q exp(i sum_k omega_k t_k), with the
    closed-form rates of ``_plane_wave_rate``."""
    if not (q > 0 and math.isfinite(q)):
        raise ValueError(f"q must be positive and finite, got {q}")
    if not 1 <= M <= 5:
        raise ValueError("M must be in 1..5")
    rates = [_plane_wave_rate(k, q) for k in range(1, M + 1)]

    def fn(x, times):
        phase = sum(w * t for w, t in zip(rates, times))
        return np.full(np.shape(x), q * np.exp(1j * phase), dtype=complex)

    return Sampler(fn, M, "plane_wave")


def _plane_wave_rate(k: int, q: float) -> float:
    """Phase rate omega_k of the constant background q under flow k.

    On psi = q only the non-derivative monomials of H_k survive, and
    psi_{t_k} = i^k H_k(q) = i omega_k q gives the central binomials of the
    AKNS hierarchy on a constant background (Ablowitz, Kaup, Newell & Segur,
    Stud. Appl. Math. 53, 1974): omega_k = (-1)^((k-1)/2) C(k+1, (k+1)/2)
    q^(k+1) for odd k (2q^2, -6q^4, 20q^6, -70q^8), and 0 for even k, whose
    flows leave a constant field alone.
    """
    if k % 2 == 0:
        return 0.0
    return (-1) ** ((k - 1) // 2) * math.comb(k + 1, (k + 1) // 2) * q ** (k + 1)


def _soliton_rate(k: int, a: float) -> float:
    """Phase rate (odd k) or velocity (even k) of the amplitude-a soliton
    under flow k.

    On the tail psi ~ 2a exp(-a(x - s) + i phi) the nonlinear terms of H_k
    are O(exp(-3ax)), so psi_{t_k} = i^k psi_{(k+1)x} there and
    a ds/dt_k + i dphi/dt_k = i^k (-a)^(k+1): odd flows turn the phase at
    (-1)^((k-1)/2) a^(k+1), even flows move the profile at
    (-1)^((k-2)/2) a^k.
    """
    sign = (-1) ** ((k - 1) // 2)
    return sign * a ** (k + 1) if k % 2 else sign * a**k


def soliton(a_amp: float, M: int = 5) -> Sampler:
    """Bright soliton a sech(a(x - drift)) exp(i phase) extended to the
    hierarchy times; even flows translate, odd flows rotate the phase."""
    if not (a_amp > 0 and math.isfinite(a_amp)):
        raise ValueError(f"amplitude a must be positive and finite, got {a_amp}")
    if not 1 <= M <= 5:
        raise ValueError("M must be in 1..5")
    a = a_amp

    def fn(x, times):
        shift = 0.0
        phase = 0.0
        for k, t in enumerate(times, start=1):
            if k % 2:
                phase += _soliton_rate(k, a) * t
            else:
                shift += _soliton_rate(k, a) * t
        return a * _sech(a * (x - shift)) * np.exp(1j * phase)

    return Sampler(fn, M, "soliton")


def _sech(y):
    """sech y as 2e^(-|y|)/(1 + e^(-2|y|)): where cosh y overflows (|y| > 710)
    this underflows quietly to 0."""
    e = np.exp(-np.abs(y))
    return 2.0 * e / (1.0 + e * e)


def peregrine() -> Sampler:
    """Quasi-rational rogue-wave solution of the first flow on the unit
    background."""

    def fn(x, times):
        t1 = times[0]
        denom = 1.0 + 4.0 * x**2 + 16.0 * t1**2
        return (1.0 - 4.0 * (1.0 + 4j * t1) / denom) * np.exp(2j * t1)

    return Sampler(fn, 1, "peregrine")


# -- Riemann theta -----------------------------------------------------------


def _check_finite(name: str, value) -> None:
    """Refuse a non-finite argument, naming it and its first bad entry."""
    bad = np.asarray(value)[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")


def _check_riemann_matrix(B: np.ndarray) -> np.ndarray:
    """Upper triangular T with pi Im B = T^T T; raises unless B is a
    finite, symmetric matrix with positive definite imaginary part."""
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise NotPositiveDefinite("Riemann matrix must be square")
    if not np.isfinite(B).all():
        raise NotPositiveDefinite("Riemann matrix must be finite")
    if np.max(np.abs(B - B.T)) > 1e-12:
        raise NotPositiveDefinite("Riemann matrix must be symmetric")
    try:
        return np.linalg.cholesky(np.pi * B.imag).T
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Im B must be positive definite") from None


def _upper_gamma(n: int, x: float) -> float:
    """Gamma(n/2, x) for a positive integer n, up from Gamma(1, x) = e^-x or
    Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) by Gamma(a+1, x) = a Gamma(a, x) + x^a e^-x."""
    a, G = (1.0, math.exp(-x)) if n % 2 == 0 else (0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x)))
    while a < n / 2:
        G, a = a * G + x**a * math.exp(-x), a + 1
    return G


def _lattice_points(T: np.ndarray, r: float) -> np.ndarray:
    """Every integer m with |T m| <= r, one per row, for upper triangular T.

    Fincke-Pohst recursion (Math. Comp. 44, 1985): with m_(i+1..g) fixed,
    row i of T m is T_ii (m_i - c_i), so m_i ranges over an interval set by
    the radius the later coordinates leave."""
    m, rem = np.zeros((1, 0)), np.array([r * r])
    for i in reversed(range(len(T))):
        c = -(m @ T[i, i + 1 :]) / T[i, i]
        h = np.sqrt(np.maximum(rem, 0.0)) / T[i, i]
        lo = np.ceil(c - h)
        n = np.maximum(np.floor(c + h) - lo + 1, 0).astype(int)
        row = np.arange(len(m)).repeat(n)
        mi = lo[row] + np.arange(n.sum()) - (n.cumsum() - n).repeat(n)
        m = np.concatenate((mi[:, None], m[row]), axis=1)
        rem = rem[row] - (T[i, i] * (mi - c[row])) ** 2
    return m


class _ThetaLattice:
    """Theta(.|B) as (log scale, oscillatory sum), set up once per B.

    With Y = Im B, c = Y^{-1} Im z and k = [[c]], the substitution n = m - k
    gives Theta(z) = exp(pi Im z.c) sum_m exp(i pi m.B.m + m.w + s)
    (Deconinck, Heil, Bobenko, van Hoeij & Schmies, Math. Comp. 73, 2004).
    Each term has modulus exp(-|T(m+f)|^2), with pi Y = T^T T and f = c - k
    in [-1/2, 1/2]^g, so the sum is O(1) however large Im z is: only the
    scale grows, and it is kept as its logarithm.  The largest term's
    modulus is moved into the scale as well, so the sum is relative to it.

    The points are the ellipsoid |T m| <= R + D, D = max_f |T f|, so every m
    with |T(m+f)| < R is kept for every f.  The terms beyond R sum to at
    most (g/2) (2/rho)^g Gamma(g/2, (R - rho/2)^2), rho the shortest vector
    of T Z^g (Deconinck et al., section 3; its ball-packing argument needs
    R - rho/2 >= sqrt(g/2), where exp(-|y|^2) is subharmonic).  R is the
    first of rho/2 + sqrt(g/2) + j/16, j = 0, 1, ..., that brings this
    under tol exp(-D^2), a lower bound on the m = 0 term, so the omitted
    terms sum to at most tol times the largest kept term, for every z.

    The sum over the kept points is separable.  With Q(m) = exp(i pi m.B.m)
    on the points' bounding box [-h, h] (the ellipsoid is symmetric), zero
    at every box point off the ellipsoid, the sum is Q contracted one axis
    at a time with the tables exp(w_j a), |a| <= h_j: one exp per box
    coordinate, not one per point.  Each partial sum of the contraction
    shares its remaining factors, so its rounding is relative to whole
    terms, which are at most the largest.  That largest term,
    max_m Re(m.w + i pi m.B.m) = |T f|^2 - min_m |T(m+f)|^2, is at the kept
    point nearest -f.  As m = 0 lies within D of -f, so does that point,
    which therefore has |T m| <= 2D: the maximum is taken exactly over
    those points only (27 of about 250 at genus 3), and the tables are
    scaled so that their scales add up to it.  The Gaussian's
    diagonal part sigma pi Y_jj m_j^2, with sigma as large as keeps
    |Q| <= 1, moves from Q into the tables, so a large diagonal of Im B
    (near a soliton limit) does not underflow Q.  Two cases take one exp
    per kept point instead, the same points summed the same way as before
    the sum was separable: a chunk of arguments whose table factors would
    leave the floating-point range (large, strongly coupled Im B), and
    every argument when the box holds more than BOX_RATIO box points per
    kept point or Q more than MAX_ENTRIES rows (a thin ellipsoid).
    """

    MAX_ENTRIES = 2**13  # entries per batch temporary (128 KiB complex)
    # Multiply-adds per matrix product: OpenBLAS runs larger ones on two
    # threads, and the thread handoff can stall for milliseconds.
    MAX_PRODUCT = 2**15
    MAX_SPAN = 600.0  # natural log; exp leaves the double range at 709
    BOX_RATIO = 10  # box points per kept point beyond which one exp per point is cheaper

    def __init__(self, B, tol: float = 1e-12):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be positive and finite, got {tol}")
        self.tol = min(max(tol, 1e-300), 1e-6)
        self.B = np.asarray(B, dtype=complex)
        T = _check_riemann_matrix(self.B)
        g = len(T)
        # rho is no longer than T's shortest column; D is reached at a corner
        norm2 = lambda x, axis: np.sqrt((x * x).sum(axis=axis))
        v = norm2(_lattice_points(T, norm2(T, 0).min() * (1 + 1e-9)) @ T.T, 1)
        rho = float(v[v > 0].min())
        D = float(norm2((np.indices((2,) * g).reshape(g, -1).T - 0.5) @ T.T, 1).max())
        tail = lambda R: g / 2 * (2 / rho) ** g * _upper_gamma(g, (R - rho / 2) ** 2)
        target = self.tol * math.exp(-D * D)
        R = rho / 2 + math.sqrt(g / 2)
        for step in (2.0**j for j in range(5, -5, -1)):  # the largest R that misses, to 1/16
            R += step if tail(R + step) > target else 0.0
        R += 1 / 16 if tail(R) > target else 0.0
        m = _lattice_points(T, R + D)
        Y = self.B.imag
        self.Y_inv = np.linalg.inv(Y)
        self.points = m.T
        self.quad = 1j * np.pi * np.einsum("ni,ij,nj->n", m, self.B, m)
        # the points that can hold the largest term, with a margin against rounding
        near = norm2(m @ T.T, 1) <= 2 * D * (1 + 1e-12)
        self.peak_points, self.peak_quad = m[near].T, self.quad.real[near]
        hi = m.max(axis=0).astype(int)
        self.shape = tuple(2 * hi + 1)
        self.Q = None
        box = math.prod(self.shape)
        if box > self.BOX_RATIO * len(m) or box // self.shape[-1] > self.MAX_ENTRIES:
            return
        # Axis j's coordinates -hi_j, ..., hi_j, padded with the last one to
        # the longest axis, so that the padding never raises a maximum.
        self.axes = np.minimum(np.arange(2 * hi.max() + 1) - hi[:, None], hi[:, None])
        # sigma pi Y_jj with sigma <= the least eigenvalue of Y_ij / sqrt(Y_ii
        # Y_jj) (Gershgorin), so that pi Y - sigma pi diag(Y) is semidefinite
        root = np.sqrt(Y.diagonal())
        diag_gauss = max(0.0, 2.0 - ((np.abs(Y) / root).sum(axis=1) / root).max()) * np.pi * root**2
        self.axis_gauss = diag_gauss[:, None] * self.axes**2
        self.Q = np.zeros(self.shape, dtype=complex)
        self.Q[tuple((m + hi).T.astype(int))] = np.exp(self.quad + m**2 @ diag_gauss)

    def __call__(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(log scale, oscillatory sum) per row of z: Theta(z_i) = exp(scale_i) osc_i."""
        z = np.asarray(z, dtype=complex).reshape(-1, len(self.B))
        c = z.imag @ self.Y_inv
        k = np.rint(c)
        f, xk = c - k, z.real - k @ self.B.real
        Yf = f @ self.B.imag
        # w = 2 pi i (z - B k) and s = i pi k.B.k - 2 pi i k.z - scale, formed
        # so that Re s = -pi f.Y.f comes without cancelling large terms; the
        # integer m lets Im w drop whole turns.
        w = 2.0 * np.pi * (1j * (xk - np.rint(xk)) - Yf)
        s_re = -np.pi * np.sum(f * Yf, axis=1)
        s_im = -np.pi * np.sum(k * (z.real + xk), axis=1)
        # With the largest term at modulus 1, |osc| <= tol means theta
        # vanishes, however small every term is (large Im B).  Rows of z
        # run along the last axis of every temporary.
        peak = np.empty(len(z))
        rows = max(1, self.MAX_ENTRIES // self.peak_points.shape[1])
        for lo in range(0, len(z), rows):
            e = self.peak_points.T @ w[lo : lo + rows].real.T
            e += self.peak_quad[:, None]
            e.max(axis=0, out=peak[lo : lo + rows])
        # Im s, less the largest term's log modulus; Re s goes to the scale
        s = 1j * s_im - peak
        osc = self._pointwise(w, s) if self.Q is None else self._contract(w, s)
        return np.pi * np.sum(c * z.imag, axis=1) + peak + s_re, osc

    def _contract(self, w, s):
        """The sum over the box: Q contracted one axis at a time with the
        tables exp(w_j a - sigma pi Y_jj a^2), a chunk of rows at a time."""
        g, n = len(self.B), self.shape
        osc = np.empty(len(w), dtype=complex)
        Q = self.Q.reshape(-1, n[-1])
        rows = max(1, min(self.MAX_ENTRIES // max(len(Q), self.axes.size), self.MAX_PRODUCT // self.Q.size))
        for lo in range(0, len(w), rows):
            sl = slice(lo, lo + rows)
            mag = self.axes[:, :, None] * w[sl].real.T[:, None, :]
            mag -= self.axis_gauss[:, :, None]
            top = mag.max(axis=1)
            # Scaled, a table entry is at most exp(lift / g) and |Q| <= 1, so
            # every product of Q and tables is at most exp(lift), and every
            # factor of a term is at least exp(-lift) times that term.  Where
            # that leaves the double range (large, strongly coupled Im B),
            # the chunk takes one exp per point instead.
            lift = top.sum(axis=0) + s[sl].real
            if lift.max() > self.MAX_SPAN:
                osc[sl] = self._pointwise(w[sl], s[sl])
                continue
            top -= lift / g
            mag -= top[:, None, :]
            # exp(i (a Im w_j + Im s / g)) by one turn per box coordinate: at
            # this width a complex multiply is several times cheaper than a
            # complex exp.
            table = np.empty(mag.shape, dtype=complex)
            table[:, 0] = np.exp(1j * (self.axes[:, :1] * w[sl].imag.T + s[sl].imag / g))
            turn = np.exp(1j * w[sl].imag.T)
            for r in range(1, mag.shape[1]):
                np.multiply(table[:, r - 1], turn, out=table[:, r])
            table *= np.exp(mag, out=mag)
            t = Q @ table[-1, : n[-1]]
            for j in reversed(range(g - 1)):
                t = t.reshape(-1, n[j], t.shape[-1])
                t *= table[j, : n[j]]
                t = t.sum(axis=1)
            osc[sl] = t[0]
        return osc

    def _pointwise(self, w, s):
        """The sum over the kept points, one exp per point and row."""
        osc = np.empty(len(w), dtype=complex)
        rows = max(1, self.MAX_ENTRIES // len(self.quad))
        for lo in range(0, len(w), rows):
            e = w[lo : lo + rows] @ self.points
            e += self.quad
            e += s[lo : lo + rows, None]
            osc[lo : lo + rows] = np.exp(e, out=e).sum(axis=1)
        return osc


def theta(z, B, tol: float = 1e-12) -> complex:
    """Riemann theta Theta(z|B) = sum_n exp{2 pi i (n.B.n/2 + n.z)}.

    The lattice sum is truncated to an ellipsoid sized by the uniform tail
    bound of Deconinck et al. (see ``_ThetaLattice``): the omitted terms
    sum to at most ``tol`` times the largest term kept, and ``tol`` must be
    positive and finite.  The kept terms are summed as a separable
    contraction over their bounding box.  The value is exp(scale) times an
    O(1) oscillatory sum; only this final product can overflow.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if np.shape(B) != (len(z), len(z)):
        raise ValueError("z/B dimension mismatch")
    _check_finite("z", z)
    scale, osc = _ThetaLattice(B, tol)(z)
    return complex(np.exp(scale[0]) * osc[0])


# -- finite-gap solutions ----------------------------------------------------


@dataclass(frozen=True)
class RiemannData:
    """User-supplied spectral data consumed by the finite-gap formula.

    V[j] is the period vector attached to the j-th phase (V[0] multiplies
    x), K[j] the expansion constants with K[0] the normalization, Z and
    delta the theta-argument shifts, rho the free scale.
    """

    genus: int
    B: np.ndarray
    V: tuple  # period vectors V^1..V^(M+1), each a g-vector
    K: tuple  # K_0..K_(M+1) complex scalars
    Z: np.ndarray
    delta: np.ndarray
    rho: complex

    def __post_init__(self):
        g = self.genus
        if g < 1:
            raise ValueError("genus must be >= 1")
        fields = {
            "B": _complex_array("B", self.B, (g, g)),
            "V": tuple(_complex_array(f"V[{j}]", v, (g,)) for j, v in enumerate(self.V)),
            "K": tuple(complex(k) for k in self.K),
            "Z": _complex_array("Z", self.Z, (g,)),
            "delta": _complex_array("delta", self.delta, (g,)),
            "rho": complex(self.rho),
        }
        for name, value in fields.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if not self.V:
            raise ValueError("V must hold at least one period vector")
        if len(self.K) < len(self.V) + 1:
            raise ValueError(f"K must hold K_0..K_{len(self.V)}, one more entry than V, got {len(self.K)}")
        _check_riemann_matrix(self.B)
        if self.K[0] == 0:
            raise ValueError("K_0 must be nonzero")
        if self.rho == 0:
            raise ValueError("rho must be nonzero")

    @property
    def max_flows(self) -> int:
        return len(self.V) - 1

    @cached_property
    def _theta_lattice(self) -> _ThetaLattice:
        return _ThetaLattice(self.B)

    def phases(self, x, times: Sequence) -> tuple:
        """U = V^1 x + sum_j V^(j+1) t_j and Phi = -K_1 x - sum_j K_(j+1) t_j,
        with a trailing g axis on U for array x.  Each t_j is a scalar or
        an array shaped like x, so one call evaluates many points in
        (x, t_1..t_M), each exactly as a call of its own would."""
        if len(times) > self.max_flows:
            raise ValueError(f"data supplies {self.max_flows} flow vectors, got {len(times)} times")
        U = np.multiply.outer(x, self.V[0])
        Phi = -self.K[1] * x
        for j, t in enumerate(times, start=1):
            U = U + np.multiply.outer(t, self.V[j])
            Phi = Phi - self.K[j + 1] * t
        return U, Phi

    def to_json(self) -> str:
        import json

        def cvec(v):
            return [[x.real, x.imag] for x in np.asarray(v, dtype=complex).reshape(-1)]

        data = {
            "genus": self.genus,
            "B": [cvec(row) for row in self.B],
            "V": [cvec(v) for v in self.V],
            "K": cvec(self.K),
            "Z": cvec(self.Z),
            "Delta": cvec(self.delta),
            "rho": [self.rho.real, self.rho.imag],
        }
        return json.dumps(data, indent=2)

    @staticmethod
    def from_json(text: str) -> "RiemannData":
        """The data of an object as ``to_json`` writes it.  A missing key, a
        value of another shape or a number that is no [re, im] pair is a
        ValueError that names the key."""
        import json

        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"Riemann data must be a JSON object, got {type(data).__name__}")
        if type(_json_value(data, "genus")) is not int:
            raise ValueError("Riemann data 'genus' must be an integer")
        return RiemannData(
            genus=data["genus"],
            B=_json_complex(data, "B", 2),
            V=tuple(_json_complex(data, "V", 2)),
            K=tuple(_json_complex(data, "K", 1)),
            Z=_json_complex(data, "Z", 1),
            delta=_json_complex(data, "Delta", 1),
            rho=_json_complex(data, "rho", 0),
        )


def _complex_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a complex array of ``shape``, a vector in any shape of
    its size; a ragged value or one of another shape is a ValueError that
    names it and the shape."""
    try:
        a = np.asarray(value, dtype=complex)
        if len(shape) == 1 and a.size == shape[0]:
            a = a.reshape(shape)
    except (ValueError, TypeError):
        a = None
    if a is None or a.shape != shape:
        raise ValueError(f"{name} must have shape {shape} for genus {shape[0]}")
    return a


def _json_value(data: dict, key: str):
    if key not in data:
        raise ValueError(f"Riemann data has no {key!r}")
    return data[key]


_JSON_SHAPES = ("an [re, im] pair", "a list of [re, im] pairs", "a list of lists of [re, im] pairs")


def _json_complex(data: dict, key: str, depth: int):
    """data[key] as complex numbers in lists nested ``depth`` deep, each
    number an [re, im] pair of JSON numbers; any other value, or a number
    beyond the float range, is a ValueError naming the key."""

    def read(value, depth):
        if not isinstance(value, list):
            raise TypeError
        if depth:
            return [read(v, depth - 1) for v in value]
        if len(value) != 2 or not all(type(v) in (int, float) for v in value):
            raise TypeError
        return complex(float(value[0]), float(value[1]))

    try:
        return read(_json_value(data, key), depth)
    except (TypeError, OverflowError):
        raise ValueError(f"Riemann data {key!r} must be {_JSON_SHAPES[depth]}") from None


def _finite_gap_values(data: RiemannData, x, times: tuple) -> np.ndarray:
    """psi at the points x, in the shape of x.  The four thetas are kept as
    (log scale, oscillatory part) and their scales are combined with 2i Phi
    before the one exp, so a finite ratio never overflows on the way."""
    shape, x = np.shape(x), np.reshape(x, -1).astype(float)
    _check_finite("x", x)
    _check_finite("times", times)
    U, Phi = data.phases(x, times)
    Z, ZD = data.Z, data.Z - data.delta
    lattice = data._theta_lattice
    scale, osc = lattice(np.concatenate([[Z, ZD], U + ZD, U + Z]))
    n = len(x)
    num, den = osc[2 : n + 2], osc[n + 2 :]
    # The oscillatory sums are accurate to about tol relative to their
    # largest term, so a denominator no larger than that is a zero of theta.
    vanishes = np.minimum(abs(osc[1]), np.abs(den)) <= lattice.tol
    if vanishes.any():
        raise ThetaZeroDivision(
            f"denominator theta vanishes at x={x[np.argmax(vanishes)]}, times={times}"
        )
    log_ratio = scale[0] + scale[2 : n + 2] - scale[1] - scale[n + 2 :] + 2j * Phi
    psi = (2.0 * data.K[0] / data.rho) * (osc[0] * num) / (osc[1] * den) * np.exp(log_ratio)
    return psi.reshape(shape)


def finite_gap_sample(data: RiemannData, x: float, times: Sequence[float] = ()) -> complex:
    """psi = (2 K_0 / rho) Theta(Z) Theta(U+Z-Delta) / [Theta(Z-Delta)
    Theta(U+Z)] exp{2i Phi} with U = V^1 x + sum_j V^(j+1) t_j and
    Phi = -K_1 x - sum_j K_(j+1) t_j."""
    return complex(_finite_gap_values(data, float(x), tuple(times)))


def finite_gap_sampler(data: RiemannData) -> Sampler:
    return Sampler(partial(_finite_gap_values, data), data.max_flows, "finite_gap")


def _affine_matrix(a: float, b: float, n: int) -> np.ndarray:
    """P[j, m] = C(j, m) a^m (2b)^(j-m), 0 <= m <= j <= n: the matrix of
    lambda -> a lambda + b on the monomials w_j = (2 lambda)^j, so that
    P w(lambda) = w(a lambda + b).

    Row j + 1 is row j times 2(a lambda + b), in Python floats, so an
    overflow is inf (NaN where inf meets 0) with no OverflowError or
    warning."""
    a, b = float(a), float(b)
    P = np.zeros((n + 1, n + 1))
    row = [1.0]
    for j in range(n + 1):
        P[j, : j + 1] = row
        row = [2 * b * row[0], *(a * row[m - 1] + 2 * b * row[m] for m in range(1, j + 1)), a * row[j]]
    return P


def moduli_transform(data: RiemannData, a: float, b: float) -> RiemannData:
    """Push the affine spectral-parameter map lambda -> a lambda + b through
    the period vectors and expansion constants; B, Z, Delta, rho unchanged.

    With P = P(a, b) of ``_affine_matrix``, V~ = P (0, V^1, ..., V^n) and
    K~ = P (1/2, K_1, ..., K_n), each without its row 0, and K~_0 = a K_0:

    V~^j = sum_{m=1}^{j} 2^(j-m) C(j,m) a^m b^(j-m) V^m
    K~_j = sum_{m=1}^{j} 2^(j-m) C(j,m) a^m b^(j-m) K_m + 2^(j-1) b^j

    At a = 1 (pure boost) this reduces to
    K~_j = K_j + 2^(j-1) b^j + sum_{m<j} C(j,m) (2b)^(j-m) K_m,
    which collapses to K_j + 2^(j-1) b^j only at j = 1: the boost's
    x-shift carries K_1, and each lower time shift carries K_m, into
    every higher order.  An overflowing entry of P makes the result
    non-finite, which RiemannData refuses.
    """
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if a == 0:
        raise ValueError("a must be nonzero")
    n = len(data.V)
    P = _affine_matrix(a, b, n)
    with np.errstate(over="ignore", invalid="ignore"):
        V = P @ np.vstack([np.zeros(data.genus), *data.V])
        K = P @ np.array([0.5, *data.K[1 : n + 1]])
    return replace(data, V=tuple(V[1:]), K=(a * data.K[0], *K[1:]))


def random_riemann_data(genus: int, n_flows: int, rng=None) -> RiemannData:
    """Random well-conditioned RiemannData (identity checks, demos, tests).

    The Riemann matrix is symmetric with Im part diagonally dominant, so
    theta sums converge quickly; vectors and constants are generic complex.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if n_flows < 0:
        raise ValueError(f"n_flows must be >= 0, got {n_flows}")
    rng = np.random.default_rng(rng)
    g = genus
    S = rng.normal(size=(g, g))
    Y = 0.5 * (S + S.T) * 0.2 + np.eye(g) * (1.5 + rng.uniform(0, 1))
    X = 0.3 * (lambda A: 0.5 * (A + A.T))(rng.normal(size=(g, g)))
    B = X + 1j * Y
    cx = lambda shape=(): rng.normal(size=shape) + 1j * rng.normal(size=shape)
    V = tuple(cx((g,)) for _ in range(n_flows + 1))
    K = tuple([complex(1.0 + abs(cx()))] + [complex(cx()) for _ in range(n_flows + 1)])
    return RiemannData(
        genus=g,
        B=B,
        V=V,
        K=K,
        Z=cx((g,)) * 0.3,
        delta=cx((g,)) * 0.3,
        rho=complex(1.0 + abs(cx())),
    )
