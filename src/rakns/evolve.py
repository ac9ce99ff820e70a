"""Time integration of mixed and time-deformed hierarchy equations,

    psi_t = sum_k i^k alpha_k'(t) H_k(psi),

with plain RK4 (guarded by the imaginary-axis stability bound) and an
integrating-factor RK4 that propagates the stiff linear phases exactly.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import astuple, dataclass, field
from typing import Sequence

import numpy as np

from .diffpoly import DiffPoly
from .hierarchy import default_flow_table
from .spectral import Field, Grid, _BoundPlan, _cached_plan, _conserved_integrals, _multipliers, eval_rhs, flow_plan, write_field

RK4_IMAG_STABILITY = 2.8  # RK4 stability interval on the imaginary axis


class EvolveError(Exception):
    pass


class Blowup(EvolveError):
    def __init__(self, message, last_good: Field | None = None):
        super().__init__(message)
        self.last_good = last_good


class StabilityViolation(EvolveError):
    pass


# -- schedules ---------------------------------------------------------------


class _FiniteParams:
    """A schedule refuses non-finite parameters, whoever passes them."""

    def __post_init__(self):
        if not all(math.isfinite(p) for p in astuple(self)):
            raise ValueError(f"{type(self).__name__} parameters must be finite")


@dataclass(frozen=True)
class Linear(_FiniteParams):
    """alpha(t) = slope*t + offset; the constant-coefficient special case."""

    slope: float
    offset: float = 0.0

    def value(self, t: float) -> float:
        return self.slope * t + self.offset

    def derivative(self, t: float) -> float:
        return self.slope


@dataclass(frozen=True)
class Poly:
    """alpha(t) = sum_m coeffs[m] * t**m."""

    coeffs: tuple

    def __init__(self, coeffs: Sequence[float]):
        coeffs = tuple(float(c) for c in coeffs)
        if not (coeffs and all(math.isfinite(c) for c in coeffs)):
            raise ValueError("Poly needs one or more finite coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def value(self, t: float) -> float:
        return sum(c * t**m for m, c in enumerate(self.coeffs))

    def derivative(self, t: float) -> float:
        return sum(m * c * t ** (m - 1) for m, c in enumerate(self.coeffs) if m)


@dataclass(frozen=True)
class Sinusoid(_FiniteParams):
    """alpha(t) = amplitude * sin(frequency*t + phase)."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def value(self, t: float) -> float:
        return self.amplitude * math.sin(self.frequency * t + self.phase)

    def derivative(self, t: float) -> float:
        return self.amplitude * self.frequency * math.cos(self.frequency * t + self.phase)


@dataclass(frozen=True)
class Bump(_FiniteParams):
    """Smooth bump supported on [t0, t1], peak value ``height`` at the center.

    alpha(t) = height * exp(4 - 1/(s(1-s))) with s = (t-t0)/(t1-t0); alpha
    and alpha' vanish identically outside the support.
    """

    t0: float
    t1: float
    height: float

    def __post_init__(self):
        super().__post_init__()
        if not self.t1 > self.t0:
            raise ValueError("Bump needs t1 > t0")

    def _s(self, t: float) -> float:
        return (t - self.t0) / (self.t1 - self.t0)

    def value(self, t: float) -> float:
        s = self._s(t)
        if s <= 0.0 or s >= 1.0:
            return 0.0
        return self.height * math.exp(4.0 - 1.0 / (s * (1.0 - s)))

    def derivative(self, t: float) -> float:
        s = self._s(t)
        if s <= 0.0 or s >= 1.0:
            return 0.0
        # d/ds of -1/(s(1-s)) is (1-2s)/(s(1-s))^2
        return self.value(t) * (1.0 - 2.0 * s) / (s * (1.0 - s)) ** 2 / (self.t1 - self.t0)


Schedule = Linear | Poly | Sinusoid | Bump


@dataclass(frozen=True)
class FlowSpec:
    """Which hierarchy flows participate and with what time schedules."""

    entries: tuple  # ((k, Schedule), ...)

    def __init__(self, entries):
        entries = tuple((int(k), s) for k, s in entries)
        orders = [k for k, _ in entries]
        if len(set(orders)) != len(orders):
            raise ValueError("flow orders must be distinct")
        if any(k < 1 for k in orders):
            raise ValueError("flow orders must be >= 1")
        object.__setattr__(self, "entries", entries)

    @property
    def max_order(self) -> int:
        return max((k for k, _ in self.entries), default=0)

    @property
    def is_constant(self) -> bool:
        return all(isinstance(s, Linear) for _, s in self.entries)

    @staticmethod
    def from_coeffs(coeffs: Sequence[float]) -> "FlowSpec":
        """Constant mix psi_t = sum i^k b_k H_k from b_1..b_M (zeros dropped)."""
        return FlowSpec(
            [(k + 1, Linear(b)) for k, b in enumerate(coeffs) if b != 0.0]
        )

    def weights(self, t: float) -> np.ndarray:
        """Flow weights i^k alpha_k'(t), one per entry."""
        return np.array([1j**k * s.derivative(t) for k, s in self.entries], dtype=complex)


def symbol_columns(spec: FlowSpec, grid: Grid) -> np.ndarray:
    """The columns (i xi)^(k+1), one per flow k of spec, that linear_symbol
    weights: the multipliers eval_rhs differentiates with, so the Nyquist
    mode of an odd order is zero here too.  A stepper forms them once and
    the symbol at each t from them."""
    return _multipliers(grid, tuple(k + 1 for k, _ in spec.entries))


def linear_symbol(spec: FlowSpec, t: float, columns) -> np.ndarray:
    """mu(xi, t) = sum_k i^k alpha_k'(t) (i xi)^(k+1) from the columns
    symbol_columns(spec, xi); purely imaginary for real schedules since
    i^k (i xi)^(k+1) = i^(2k+1) xi^(k+1)."""
    return sum(w * col for w, col in zip(spec.weights(t), columns))


def _stepper(table, spec: FlowSpec, grid: Grid, dt: float, method: str):
    """One step of size dt as ``advance(f, t_new) -> Field``.

    rk4 is plain RK4 on the whole right-hand side behind the stability
    guard; ifrk4 (constant coefficients only) propagates the linear phases
    e^(mu dt) exactly and applies RK4 to the nonlinear remainder
    sum_k i^k alpha_k' (H_k - psi_{(k+1)x}).  Either way each stage is one
    evaluation of one plan for the whole spec.  rk4, the reference
    integrator, evaluates through eval_rhs and holds no workspace between
    steps (a bound one raised its peak RSS for no speed).  ifrk4 binds its
    plan to the grid once and runs each stage from psi-hat, one inverse and
    one forward FFT per stage.  A step that leaves non-finite values raises
    Blowup carrying the field it started from.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    if method == "auto":
        method = "ifrk4" if spec.is_constant else "rk4"
    columns = symbol_columns(spec, grid)
    if method == "rk4":
        plan = flow_plan(table, spec)

        def rhs(v, t):
            return eval_rhs(plan, v, grid, spec.weights(t))

        def integrate(v, t):
            mu_max = float(np.max(np.abs(linear_symbol(spec, t, columns))))
            if dt * mu_max > RK4_IMAG_STABILITY:
                raise StabilityViolation(f"dt*max|mu| = {dt * mu_max:.3g} exceeds {RK4_IMAG_STABILITY}")
            k1 = rhs(v, t)
            k2 = rhs(v + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = rhs(v + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = rhs(v + dt * k3, t + dt)
            return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    elif method == "ifrk4":
        if not spec.is_constant:
            raise EvolveError("ifrk4 requires Linear (constant-coefficient) schedules")
        plan = _cached_plan(
            *(table.H[k] - DiffPoly.var("psi", k + 1) for k, _ in spec.entries)
        )
        program = _BoundPlan(plan, grid, spec.weights(0.0))
        e = np.exp(0.5 * dt * linear_symbol(spec, 0.0, columns))
        e2 = e * e

        def nhat(u):
            return np.fft.fft(program(u))

        def integrate(v, t):
            u = np.fft.fft(v)
            a = nhat(u)
            b = nhat(e * (u + 0.5 * dt * a))
            c = nhat(e * u + 0.5 * dt * b)
            d = nhat(e2 * u + dt * e * c)
            return np.fft.ifft(e2 * u + (dt / 6.0) * (e2 * a + 2.0 * e * (b + c) + d))

    else:
        raise ValueError(f"unknown method {method!r}")

    def advance(f: Field, t_new: float) -> Field:
        new = integrate(f.values, f.time)
        if not np.all(np.isfinite(new.view(float))):
            raise Blowup(f"non-finite values after the step from t={f.time:.6g}", last_good=f)
        return Field._checked(grid, new, t_new)

    return advance


def step(f: Field, spec: FlowSpec, dt: float, method: str = "rk4") -> Field:
    """Advance one time step.  rk4 enforces the stability bound; ifrk4
    requires constant coefficients."""
    table = default_flow_table(max(spec.max_order, 1))
    # Overflow before a Blowup is the Blowup, as in evolve_run.
    with np.errstate(over="ignore", invalid="ignore"):
        return _stepper(table, spec, f.grid, dt, method)(f, f.time + dt)


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    conserved: list = field(default_factory=list)  # rows: (t, c1, c2, c3)

    def append(self, f: Field, conserved_row) -> None:
        self.times.append(f.time)
        self.fields.append(f)
        self.conserved.append(conserved_row)

    @property
    def final(self) -> Field:
        return self.fields[-1]

    def write(self, outdir) -> None:
        """Directory of field files snap_<step>.txt plus conserved.csv."""
        os.makedirs(outdir, exist_ok=True)
        for i, f in enumerate(self.fields):
            write_field(f, os.path.join(outdir, f"snap_{i}.txt"))
        with open(os.path.join(outdir, "conserved.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "re_c1", "im_c1", "re_c2", "im_c2", "re_c3", "im_c3"])
            for t, row in zip(self.times, self.conserved):
                w.writerow([f"{t:.17g}"] + [f"{x:.17g}" for c in row for x in (c.real, c.imag)])


def evolve_run(
    f0: Field,
    spec: FlowSpec,
    t_end: float,
    dt: float,
    method: str = "auto",
    snapshot_stride: int | None = None,
) -> Trajectory:
    """Integrate from f0.time to f0.time + t_end, recording snapshots and a
    conserved-quantity log (orders 1..3) at each snapshot."""
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError("t_end must be finite and non-negative")
    table = default_flow_table(max(spec.max_order, 2))
    advance = _stepper(table, spec, f0.grid, dt, method)
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    if snapshot_stride is None:
        snapshot_stride = max(1, n_steps // 64)
    elif not (isinstance(snapshot_stride, numbers.Integral) and snapshot_stride >= 1):
        raise ValueError("snapshot_stride must be a positive integer")

    traj = Trajectory()

    def record(f: Field):
        traj.append(f, _conserved_integrals(f, table, (1, 2, 3)))

    record(f0)
    f = f0
    # A growing field overflows before it turns non-finite; advance reports
    # that as Blowup, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            f = advance(f, f0.time + (i + 1) * dt)
            if (i + 1) % snapshot_stride == 0 or i + 1 == n_steps:
                record(f)
    return traj
