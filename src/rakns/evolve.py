"""Time integration of mixed and time-deformed hierarchy equations,

    psi_t = sum_k i^k alpha_k'(t) H_k(psi),

with one stepper for every schedule, Lawson's integrating-factor RK4,
which propagates the stiff linear phases exactly by exp(int mu dt); plain
RK4, guarded by the imaginary-axis stability bound, stays as the oracle.
Both step psi-hat through the spec's one flow plan, bound to the grid
once per run (as is the plan of the densities a run records), and make
their linear symbol from its unit phases, read off it once per run; the
oracle differs in its time scheme alone.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import astuple, dataclass, field
from typing import Sequence

import numpy as np

from .hierarchy import conserved_density, default_flow_table
from .spectral import Field, Grid, _BoundPlan, _cached_plan, flow_plan, write_field

RK4_IMAG_STABILITY = 2.8  # RK4 stability interval on the imaginary axis
RECORDED = (1, 2, 3)  # the orders of the conserved integrals each snapshot records


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
        s, value = self._s(t), self.value(t)
        if value == 0.0:  # outside the support, or exp underflowed at its edge
            return 0.0
        # d/ds of -1/(s(1-s)) is (1-2s)/(s(1-s))^2
        return value * (1.0 - 2.0 * s) / (s * (1.0 - s)) ** 2 / (self.t1 - self.t0)


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


def _unit_phases(program: _BoundPlan, spec: FlowSpec) -> list:
    """phi_k(xi) per flow, real: the bound flow plan's linear symbol at the
    unit increment i^k of flow k alone is i phi_k.  Every hierarchy flow's
    linear part psi_(k+1)x has coefficient 1, so that symbol is purely
    imaginary; one that is not is refused, not rounded to its phase."""
    mus = [program.symbol(unit) for unit in np.diag([1j**k for k, _ in spec.entries])]
    for (k, _), mu in zip(spec.entries, mus):
        if np.any(mu.real):
            raise ValueError(f"the linear symbol of flow {k} is not imaginary")
    return [np.ascontiguousarray(mu.imag) for mu in mus]


def _stepper(table, spec: FlowSpec, grid: Grid, dt: float, method: str):
    """One step of size dt: integrate(psi_hat, t) is psi-hat one step on
    from t; ``_advanced`` checks it.

    Both methods bind the spec's one flow plan to the grid once and run
    its nonlinear part from psi-hat at the stage weights: one batched
    inverse and one forward FFT per stage, 8 per step.  Both make the
    linear symbol mu = sum_k i^k alpha_k' (i xi)^(k+1) = i sum_k alpha_k'
    phi_k from the real rows phi_k of ``_unit_phases``, made once per run.
    ifrk4 (auto too) is Lawson's integrating-factor RK4 for any schedules.
    exp(int mu dt) over a half step is exp of the symbol at the increments
    i^k (alpha_k(t1) - alpha_k(t0)), that is cos(phi) + i sin(phi) with
    phi = sum_k (alpha_k(t1) - alpha_k(t0)) phi_k: no complex exp.  For
    Linear schedules the factors and weights are made once.  rk4, the
    oracle, is plain RK4 on psi-hat, a stage mu(t) psi-hat plus the FFT of
    the nonlinear part, behind the guard dt max|mu| <= 2.8.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    if method not in ("auto", "ifrk4", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    program = _BoundPlan(flow_plan(table, spec), grid)
    phases = _unit_phases(program, spec)

    def nhat(u, w):
        return np.fft.fft(program(u, w))

    if method == "rk4":

        def mu(t):
            return 1j * sum((s.derivative(t) * row for (_, s), row in zip(spec.entries, phases)), np.zeros(grid.n))

        def rhs(u, t):
            return mu(t) * u + nhat(u, spec.weights(t))

        def integrate(u, t):
            mu_max = float(np.max(np.abs(mu(t))))
            if dt * mu_max > RK4_IMAG_STABILITY:
                raise StabilityViolation(f"dt*max|mu| = {dt * mu_max:.3g} exceeds {RK4_IMAG_STABILITY}")
            k1 = rhs(u, t)
            k2 = rhs(u + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = rhs(u + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = rhs(u + dt * k3, t + dt)
            return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        return integrate

    def factor(alpha0, alpha1):
        phi = sum(((a1 - a0) * row for a0, a1, row in zip(alpha0, alpha1, phases)), np.zeros(grid.n))
        e = np.empty(grid.n, dtype=complex)
        np.cos(phi, out=e.real)
        np.sin(phi, out=e.imag)
        return e

    def factors(t):
        """e1 and e2 over the half steps from t, e = e1 e2, and the
        weights at t, t + dt/2 and t + dt."""
        ts = (t, t + 0.5 * dt, t + dt)
        alpha = [[s.value(r) for _, s in spec.entries] for r in ts]
        e1, e2 = (factor(a0, a1) for a0, a1 in zip(alpha, alpha[1:]))
        return e1, e2, e1 * e2, *map(spec.weights, ts)

    fixed = factors(0.0) if spec.is_constant else None

    def integrate(u, t):
        e1, e2, e, w0, wh, w1 = fixed or factors(t)
        a = nhat(u, w0)
        b = nhat(e1 * (u + 0.5 * dt * a), wh)
        c = nhat(e1 * u + 0.5 * dt * b, wh)
        eu = e * u
        d = nhat(eu + dt * e2 * c, w1)
        return eu + (dt / 6.0) * (e * a + 2.0 * e2 * (b + c) + d)

    return integrate


def _advanced(integrate, state, t: float, last_good):
    """integrate(state, t), the one blow-up check: a step that leaves
    non-finite values raises Blowup carrying last_good(), the Field the
    step started from."""
    new = integrate(state, t)
    if not np.all(np.isfinite(new.view(float))):
        raise Blowup(f"non-finite values after the step from t={t:.6g}", last_good=last_good())
    return new


def step(f: Field, spec: FlowSpec, dt: float, method: str = "auto") -> Field:
    """Advance one time step; the method defaults to evolve_run's auto, which
    is ifrk4 for every schedule.  rk4, the oracle, enforces the stability
    bound.  A step of either goes to psi-hat and back: 10 FFTs for hnls5."""
    table = default_flow_table(max(spec.max_order, 1))
    # Overflow before a Blowup is the Blowup, as in evolve_run.
    with np.errstate(over="ignore", invalid="ignore"):
        integrate = _stepper(table, spec, f.grid, dt, method)
        new = np.fft.ifft(_advanced(integrate, np.fft.fft(f.values), f.time, lambda: f))
    return Field(f.grid, new, f.time + dt)


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    conserved: list = field(default_factory=list)  # rows: c_k for k in RECORDED at times[i]

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
            w.writerow(["t"] + [f"{part}_c{k}" for k in RECORDED for part in ("re", "im")])
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
    conserved-quantity log (the orders RECORDED) at each snapshot.

    Either method holds psi-hat from one forward FFT of f0 to the end:
    samples are made only at a snapshot, where the densities' plan, bound
    once per run, gives them with its jets by one batched inverse FFT,
    and for the last good Field of a Blowup."""
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError("t_end must be finite and non-negative")
    table = default_flow_table(max(spec.max_order, max(RECORDED) - 1))  # density k needs order k - 1
    grid, traj = f0.grid, Trajectory()

    def record(state, t, f=None):  # called once densities is bound
        samples, row = densities.integrals(state)
        traj.append(f or Field(grid, samples, t), row)

    def last_good():  # called before state and t move on
        return f0 if i == 1 else Field(grid, np.fft.ifft(state), t)

    # A growing field overflows before it turns non-finite; _advanced reports
    # that as Blowup, so numpy's overflow warnings would only repeat it.  The
    # same holds for Lawson's fixed factors, which _stepper makes up front.
    with np.errstate(over="ignore", invalid="ignore"):
        integrate = _stepper(table, spec, grid, dt, method)
        densities = _BoundPlan(_cached_plan(*(conserved_density(table, k) for k in RECORDED)), grid)
        steps = t_end / dt
        if not math.isfinite(steps):
            raise ValueError(f"t_end / dt = {steps} is not a finite step count")
        n_steps = int(round(steps))
        if abs(n_steps * dt - t_end) > 1e-9 * t_end:
            raise ValueError("t_end must be an integer multiple of dt")
        if snapshot_stride is None:
            snapshot_stride = max(1, n_steps // 64)
        elif not (isinstance(snapshot_stride, numbers.Integral) and snapshot_stride >= 1):
            raise ValueError("snapshot_stride must be a positive integer")

        state, t = np.fft.fft(f0.values), f0.time
        record(state, t, f0)
        for i in range(1, n_steps + 1):
            state = _advanced(integrate, state, t, last_good)
            t = f0.time + i * dt
            if i % snapshot_stride == 0 or i == n_steps:
                record(state, t)
    return traj
