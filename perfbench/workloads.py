"""The four workloads and the session that times and counts their operations.

A workload's constructor is its set-up: it receives the freshly imported
``rakns`` package, generates its inputs from the seed and warms what a
first run would build (flow tables, compiled plans).  ``rep`` runs the
workload's fixed work once through a ``Session``, which times every rakns
operation between two reference-kernel samples and counts failures.
NOTES.md says why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import shutil
import time
from collections import Counter
from pathlib import Path

import numpy as np

from refkernel import RefKernel


class Session:
    """Times and counts the rakns operations of one process.

    An operation fails when it raises, when a CLI call exits nonzero, or
    when a correctness check misses its tolerance; only the last also makes
    the run incorrect.
    """

    def __init__(self, kernel: RefKernel):
        self.kernel = kernel
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: Counter = Counter()
        self._last_ms = 0.0
        self._raw = 0.0
        self._norm = 0.0

    def rep(self, workload) -> tuple[float, float]:
        """Run one repetition; return its (raw, normalised) seconds."""
        self._raw = self._norm = 0.0
        self._last_ms = self.kernel.sample()
        workload.rep(self)
        return self._raw, self._norm

    def call(self, name: str, fn, *args, **kwargs):
        """Time one rakns operation.  Returns (ok, result or exception)."""
        self.attempted += 1
        before = self._last_ms
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception as exc:  # any exception out of rakns is a failed operation
            result, ok = exc, False
        raw = time.perf_counter() - t0
        self._last_ms = self.kernel.sample()
        self._raw += raw
        self._norm += raw * RefKernel.factor(before, self._last_ms)
        if not ok:
            self._fail(f"{name}: {type(result).__name__}")
        return ok, result

    def cli(self, name: str, cli_main, argv: list[str]):
        """Time one ``rakns.cli.main`` call with its output captured.

        Returns (ok, stdout); a nonzero exit code is a failed operation.
        """
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli_main(argv)

        ok, rc = self.call(name, run)
        if ok and rc != 0:
            self._fail(f"{name}: exit {rc}")
            ok = False
        return ok, out.getvalue()

    def check(self, name: str, passed: bool) -> None:
        """Count one correctness check as an operation."""
        self.attempted += 1
        if not passed:
            self.correct = False
            self._fail(f"{name}: out of tolerance")

    def _fail(self, key: str) -> None:
        self.failed += 1
        self.failures[key] += 1


# -- inputs the benchmark generates itself ------------------------------------


def soliton_values(x, centre: float, phase: float, times=(), length: float | None = None):
    """Unit bright soliton at multi-times (t_1..t_5), in closed form.

    On the unit sech profile H_k = sech for odd k and sech' for even k, so
    psi = sech(x - centre - t_2 + t_4) exp(i(phase + t_1 - t_3 + t_5)).
    With ``length`` the nearest periodic images are added, so the profile
    is smooth across the seam of a periodic grid.
    """
    t = tuple(times) + (0.0,) * (5 - len(times))
    shift = centre + t[1] - t[3]
    images = (-1, 0, 1) if length else (0,)
    profile = sum(1.0 / np.cosh(x - shift + m * (length or 0.0)) for m in images)
    return profile * np.exp(1j * (phase + t[0] - t[2] + t[4]))


def write_field_file(path: Path, values, length: float, time_: float = 0.0) -> None:
    """Write a field in the documented ``# akns-field v1`` text format."""
    lines = ["# akns-field v1", f"n={len(values)} L={length:.17g} t={time_:.17g}"]
    lines += [f"{i} {v.real:.17g} {v.imag:.17g}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def read_field_values(path: Path) -> np.ndarray:
    """Samples of a ``# akns-field v1`` file, read without rakns."""
    lines = path.read_text().split("\n")
    n = int(lines[1].split()[0][2:])
    values = np.zeros(n, dtype=complex)
    for line in lines[2:]:
        if line:
            i, re_, im = line.split()
            values[int(i)] = complex(float(re_), float(im))
    return values


def conserved_drift(rows) -> float:
    """max_k |c_k(T) - c_k(0)| / |c_1(0)| over rows of (c_1, c_2, c_3)."""
    first, last = np.asarray(rows[0]), np.asarray(rows[-1])
    return float(np.max(np.abs(last - first)) / abs(first[0]))


def riemann_data(rakns, rng, genus: int, n_flows: int):
    """Generic RiemannData whose Im B has smallest eigenvalue 1.5.

    Modelled on the shape of rakns.random_riemann_data, but generated here so
    that a change to that helper cannot move the inputs.  Pinning
    lambda_min(Im B) pins the theta lattice radius, so the lattice size, and
    with it most of the sampling cost, does not depend on the seed.
    """
    q, _ = np.linalg.qr(rng.normal(size=(genus, genus)))
    lam = np.concatenate([[1.5], rng.uniform(1.5, 2.5, size=genus - 1)])
    im_b = (q * lam) @ q.T
    a = rng.normal(size=(genus, genus))
    b = 0.15 * (a + a.T) + 1j * 0.5 * (im_b + im_b.T)

    def cx(shape=()):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return rakns.RiemannData(
        genus=genus,
        B=b,
        V=tuple(cx((genus,)) for _ in range(n_flows + 1)),
        K=tuple([complex(1.0 + abs(cx()))] + [complex(cx()) for _ in range(n_flows + 1)]),
        Z=cx((genus,)) * 0.3,
        delta=cx((genus,)) * 0.3,
        rho=complex(1.0 + abs(cx())),
    )


def _table_terms(table) -> int:
    """Monomials in the table's scalar flows H_k and conserved densities."""
    return sum(len(p.terms) for p in list(table.H.values()) + list(table.density.values()))


# -- workloads ----------------------------------------------------------------


class CliHnls5:
    """hnls5 mix through the CLI (IF-RK4), then ``verify residual``."""

    B = (1.0, -0.4, -0.1, 0.05, 0.02)
    N, L = 256, 40.0
    DT, STEPS = 2.5e-5, 200
    ERR_TOL = 1e-7

    def __init__(self, rakns, seed: int, workdir: Path, root: Path):
        import rakns.cli

        self.rk = rakns
        rng = np.random.default_rng(seed)
        centre, phase = rng.uniform(-4.0, 4.0), rng.uniform(0.0, 2.0 * math.pi)
        self.t_end = self.STEPS * self.DT
        x = np.arange(self.N) * (self.L / self.N) - self.L / 2
        self.init = workdir / "init.txt"
        self.config = workdir / "hnls5.cfg"
        self.out = workdir / "snaps"
        write_field_file(self.init, soliton_values(x, centre, phase, length=self.L), self.L)
        flows = "".join(f"flow{k} = linear({b!r})\n" for k, b in enumerate(self.B, start=1))
        self.config.write_text(
            f"[flows]\n{flows}[grid]\nn = {self.N}\nlength = {self.L!r}\n"
            f"[time]\ndt = {self.DT!r}\nt_end = {self.t_end!r}\nmethod = ifrk4\n"
        )
        self.exact = soliton_values(
            x, centre, phase, [b * self.t_end for b in self.B], length=self.L
        )
        # Build the flow table and compile the plans the timed CLI runs use.
        self.terms = _table_terms(rakns.default_flow_table(len(self.B)))
        spec = rakns.parse_config(self.config.read_text()).flow_spec()
        warm = rakns.evolve_run(
            rakns.read_field(self.init), spec, 2 * self.DT, self.DT, snapshot_stride=1
        )
        rakns.residual(*warm.fields, spec)
        self.err_max = self.drift_max = self.resid_max = 0.0

    def rep(self, s: Session) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        evolve = ["evolve", "--config", str(self.config), "--initial", str(self.init),
                  "--out", str(self.out)]
        ok, _ = s.cli("evolve", self.rk.cli.main, evolve)
        if not ok:
            return
        # The CLI's default --tol, as a user would run it.
        verify = ["verify", "residual", "--snapshots", str(self.out), "--config", str(self.config)]
        _, text = s.cli("verify residual", self.rk.cli.main, verify)
        worst = re.search(r"worst residual (\S+)", text)
        if worst:
            self.resid_max = max(self.resid_max, float(worst.group(1)))
        last = max(self.out.glob("snap_*.txt"), key=lambda p: int(p.stem[5:]))
        err = float(np.max(np.abs(read_field_values(last) - self.exact)))
        self.err_max = max(self.err_max, err)
        s.check("err_max", err <= self.ERR_TOL)
        with open(self.out / "conserved.csv", newline="") as fh:
            rows = [[complex(float(r[i]), float(r[i + 1])) for i in (1, 3, 5)]
                    for r in list(csv.reader(fh))[1:]]
        self.drift_max = max(self.drift_max, conserved_drift(rows))


class DeformedRk4:
    """Sinusoid schedules on flows 1-3, stability-guarded RK4, no files."""

    SCHEDULES = ((1, 1.0, 2.0), (2, 0.3, 3.0), (3, 0.05, 1.0))  # (k, amplitude, frequency)
    N, L = 2048, 320.0
    DT, STEPS = 1.25e-4, 160
    ERR_TOL = 1e-10

    def __init__(self, rakns, seed: int, workdir: Path, root: Path):
        self.rk = rakns
        rng = np.random.default_rng(seed)
        centre, phase = rng.uniform(-20.0, 20.0), rng.uniform(0.0, 2.0 * math.pi)
        self.t_end = self.STEPS * self.DT
        grid = rakns.Grid(self.N, self.L)
        x = grid.nodes - self.L / 2
        self.spec = rakns.FlowSpec(
            [(k, rakns.Sinusoid(amp, freq)) for k, amp, freq in self.SCHEDULES]
        )
        self.f0 = rakns.Field(grid, soliton_values(x, centre, phase))
        times = [amp * math.sin(freq * self.t_end) for _, amp, freq in self.SCHEDULES]
        self.exact = soliton_values(x, centre, phase, times)
        self.terms = _table_terms(rakns.default_flow_table(len(self.SCHEDULES)))
        rakns.evolve_run(self.f0, self.spec, 2 * self.DT, self.DT, method="auto")
        self.err_max = self.drift_max = self.resid_max = 0.0

    def rep(self, s: Session) -> None:
        ok, traj = s.call(
            "evolve_run", self.rk.evolve_run, self.f0, self.spec, self.t_end, self.DT,
            method="auto",
        )
        if not ok:
            return
        err = float(np.max(np.abs(traj.final.values - self.exact)))
        self.err_max = max(self.err_max, err)
        s.check("err_max", err <= self.ERR_TOL)
        self.drift_max = max(self.drift_max, conserved_drift(traj.conserved))


class HierarchyAudit:
    """Exact layer only: the CLI audit through order 7 and H1-H5 vs golden."""

    MAX_ORDER = 7
    GOLDEN = 5

    def __init__(self, rakns, seed: int, workdir: Path, root: Path):
        import rakns.cli

        self.rk = rakns
        golden = root / "tests" / "golden"
        self.golden = {
            k: rakns.diffpoly.from_json((golden / f"H{k}.json").read_text())
            for k in range(1, self.GOLDEN + 1)
        }
        self.terms = 0
        self.err_max = self.drift_max = self.resid_max = 0.0

    def rep(self, s: Session) -> None:
        argv = ["hierarchy", "verify", "--max-order", str(self.MAX_ORDER)]
        _, text = s.cli("hierarchy verify", self.rk.cli.main, argv)
        s.check("zero-curvature audit", text.count(": pass") == self.MAX_ORDER)
        ok, table = s.call("build_flows", self.rk.build_flows, self.MAX_ORDER)
        if not ok:
            return
        self.terms = _table_terms(table)
        s.check(
            "golden H1-H5",
            all(self.rk.scalar_H(table, k) == h for k, h in self.golden.items()),
        )
        s.call(
            "render",
            lambda: [self.rk.render(self.rk.scalar_H(table, k))
                     for k in range(1, self.MAX_ORDER + 1)],
        )


class FiniteGap:
    """Theta-function sampling of a fixed panel of genus 1-3 data, then the
    moduli transform and its identity check at seeded parameters."""

    GENERA = (1, 2, 3)
    SETS_PER_GENUS = 4
    N_FLOWS = 5
    N, L = 256, 40.0
    ERR_TOL = 1e-10
    # The panel (data and sampling multi-times) is drawn from this seed, not
    # from --seed: which samplings fail must be the same in every run, so
    # that the failed fraction of two sets of runs agrees.  It is the first
    # seed of the generator, not a chosen one; 8 of its 12 samplings fail.
    PANEL_SEED = 0

    def __init__(self, rakns, seed: int, workdir: Path, root: Path):
        self.rk = rakns
        panel = np.random.default_rng(self.PANEL_SEED)
        rng = np.random.default_rng(seed)
        self.grid = rakns.Grid(self.N, self.L)
        # One multi-time per data set: theta overflow is set by V_1 x over the
        # grid, so a second small time of the same data fails or passes with
        # the first, while another data set is an independent draw.
        self.cases = [
            (
                riemann_data(rakns, panel, genus, self.N_FLOWS),
                tuple(panel.uniform(-0.5, 0.5, size=3)),
                (rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)),
            )
            for genus in self.GENERA
            for _ in range(self.SETS_PER_GENUS)
        ]
        self.terms = 0
        self.err_max = self.drift_max = self.resid_max = 0.0

    def rep(self, s: Session) -> None:
        rk = self.rk
        for data, times, (a, b) in self.cases:
            sampled, _ = s.call(
                "sample_onto_grid",
                lambda: rk.sample_onto_grid(rk.finite_gap_sampler(data), self.grid, times),
            )
            s.call("moduli_transform", rk.moduli_transform, data, a, b)
            ok, errs = s.call(
                "identity_errors", rk.identity_errors, data, rk.SymmetryParams(a, b),
                self.N_FLOWS,
            )
            if ok:
                err = max(errs.values())
                s.check("identity_errors", err <= self.ERR_TOL)
                if sampled:
                    self.err_max = max(self.err_max, err)


WORKLOADS = {
    "cli_hnls5": CliHnls5,
    "deformed_rk4": DeformedRk4,
    "hierarchy_audit": HierarchyAudit,
    "finite_gap": FiniteGap,
}
