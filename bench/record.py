"""Record paired benchmark runs and analytic-layer timings in BENCH_<date>.json.

    python3 bench/record.py pairs --parent DIR --change DIR --workload finite_gap \
        --seeds 101-110 --out RUNS
    python3 bench/record.py write --parent DIR --change DIR --runs RUNS \
        --parent-label 0b8782b --change-label "separable theta sum"

``pairs`` runs ``perfbench/run.py --seconds 24`` of each checkout once per
seed, alternating which side runs first, and keeps the JSON line of every
run in RUNS.  ``write`` times the analytic layer and the imports of both
checkouts (each in fresh processes, alternating), summarises every workload
found in RUNS (medians, quartiles, pairs won) and appends one entry to the
newest BENCH_*.json at the root of this checkout, or starts
BENCH_<today>.json.  The entry also records the line count of
``src/rakns`` on each side.

The analytic rows: building the theta lattice, sampling 256 points of
finite-gap data at genus 1-3, and the theta evaluator on an ill-conditioned
genus-4 matrix.  Next to each time is an accuracy: the largest pointwise
relative error of psi, or of the oscillatory sum relative to its largest
term, against the one-exp-per-point sum of tests/oracles.py.  Each round
runs one fresh process per checkout, back to back, alternating which goes
first; a row keeps each side's median over the rounds and the ratio
change/parent of every round, with its median and quartiles, in which a
drift of the host's speed from one round to the next cancels.

The stepping rows: one ``evolve_run`` of the benchmark's ``deformed_rk4``
spec (Sinusoid schedules on flows 1-3, n = 2048, L = 320, T = 0.02) from
a soliton with ``method="auto"``, at the benchmark's dt = 1.25e-4 and at
2.5e-4, the median of five runs in each round; next to each time is the
largest error against the multi-time soliton sampler and the number of
``numpy.fft.fft`` and ``ifft`` calls of one run, counted in the recorder
process by ``perfbench/tracer.py``'s ``Tracer`` (rakns itself is not
changed).  A side whose stepper refuses a dt (rk4's stability guard
raises StabilityViolation) records the refusal in place of a time.

The field-file rows: one ``write_field`` and one ``read_field`` of a file
of random samples at n = 256 and 2048, the median of IO_REPS calls in each
round, with the file's bytes and the number of doubles whose bits differ
after the round trip (0 when every sample reads back to itself).

The whole-run row: one in-process repetition of the benchmark's
``cli_hnls5`` workload, set up by ``perfbench/workloads.py`` at seed 1 (its
config, initial field and warm-up): ``cli.main`` of ``evolve`` (200
IF-RK4 steps at n = 256, 68 snapshot files) and of ``verify residual``,
output captured, the median of RUN_REPS in each round.  Next to the time
are the last snapshot's error against the workload's exact soliton and the
worst residual that ``verify`` prints.

The import rows: ``import rakns``, ``import rakns.cli``, and a whole
``rakns hierarchy verify --max-order 7`` run in-process (import plus
``cli.main``), each timed in fresh processes with numpy already imported,
as the benchmark's workers have it.  Cold is a copy of ``src/`` with no
bytecode cache under ``PYTHONDONTWRITEBYTECODE=1``, so every module is
compiled; warm is the same copy after ``compileall``.  Needs only numpy and
the standard library.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 9  # rounds of one fresh process per checkout for the analytic rows
IO_REPS = 200  # write_field and read_field calls per field-file row and round
RUN_REPS = 7  # cli_hnls5 repetitions per whole-run row and round
IMPORT_ROUNDS = 11  # fresh processes per checkout, cold and warm, for the import rows
IMPORTS = {
    "import rakns": "import rakns",
    "import rakns.cli": "import rakns.cli",
    "rakns hierarchy verify --max-order 7 (import and cli.main)":
        "import rakns.cli; rakns.cli.main(['hierarchy', 'verify', '--max-order', '7'])",
    "rakns identity check --a 1.2 --b 0.1 (import and cli.main)":
        "import rakns.cli; rakns.cli.main(['identity', 'check', '--a', '1.2', '--b', '0.1'])",
}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "24", "--trace", "0"]
    lines = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    result = json.loads(lines[-1])
    result["repetitions"] = int(lines[0].split(": ")[1].split()[0])  # "workload W, seed S: N repetitions ..."
    return result


def cmd_pairs(args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    first, last = (int(s) for s in args.seeds.split("-"))
    for i, seed in enumerate(range(first, last + 1)):
        sides = [("parent", args.parent), ("change", args.change)]
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            result = run_once(Path(checkout), args.workload, seed)
            (out / f"{args.workload}_{seed}_{side}.json").write_text(json.dumps(result))
            solve = result["metrics"]["solve_s"]["value"]
            print(f"{args.workload} seed {seed} {side}: solve_s {solve:.4g}", flush=True)


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: Path) -> dict:
    table: dict = {}
    for path in sorted(runs.glob("*_change.json")):
        workload, seed, _ = path.stem.rsplit("_", 2)
        other = path.with_name(f"{workload}_{seed}_parent.json")
        if other.exists():
            table.setdefault(workload, []).append((json.loads(other.read_text()), json.loads(path.read_text())))
    summary = {}
    for workload, pairs in sorted(table.items()):
        row = {"pairs": len(pairs)}
        for metric in pairs[0][0]["metrics"]:
            parent = [p["metrics"][metric]["value"] for p, _ in pairs]
            change = [c["metrics"][metric]["value"] for _, c in pairs]
            pq, cq = quartiles(parent), quartiles(change)
            row[metric] = {
                "unit": pairs[0][0]["metrics"][metric]["unit"],
                "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
                "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
                "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            }
        for side, index in (("parent", 0), ("change", 1)):
            failed, attempted = (sum(p[index][key] for p in pairs) for key in ("failed", "attempted"))
            row[f"failed_{side}"] = f"{failed}/{attempted}"
            reps = [p[index].get("repetitions") for p in pairs]
            row[f"repetitions_{side}"] = [min(reps), max(reps)] if None not in reps else None
        summary[workload] = row
    return summary


def median_seconds(fn, reps: int) -> float:
    """The median seconds of ``reps`` calls of ``fn``."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def analytic_rows() -> dict:
    """Time and check the analytic layer of the rakns on sys.path."""
    import numpy as np

    from oracles import theta_terms_reference
    from rakns.solutions import _ThetaLattice, finite_gap_sampler, random_riemann_data

    def median_ms(fn, reps):
        return median_seconds(fn, reps) * 1e3

    rows = {}
    x, times = np.linspace(-20.0, 20.0, 256, endpoint=False), (0.1, -0.05)
    for genus in (1, 2, 3):
        data = random_riemann_data(genus, 5, rng=0)
        psi = finite_gap_sampler(data)(x, times)
        U, Phi = data.phases(x, times)
        Z, ZD = data.Z, data.Z - data.delta
        scale, osc = theta_terms_reference(
            data._theta_lattice, np.concatenate([[Z, ZD], U + ZD, U + Z]), dtype=np.clongdouble)
        n = len(x)
        ref = (2.0 * data.K[0] / data.rho) * (osc[0] * osc[2 : n + 2]) / (osc[1] * osc[n + 2 :]) * np.exp(
            scale[0] + scale[2 : n + 2] - scale[1] - scale[n + 2 :] + 2j * Phi
        )
        err = float(np.max(np.abs(psi - ref) / np.abs(ref)))  # ref is extended precision
        rows[f"lattice build, genus {genus}"] = {
            "ms": median_ms(lambda: _ThetaLattice(data.B), 400), "psi_rel_err": err}
        sampler = finite_gap_sampler(data)
        rows[f"finite-gap sampling, 256 points, genus {genus}"] = {
            "ms": median_ms(lambda: sampler(x, times), 100 if genus < 3 else 40), "psi_rel_err": err}
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    B = 0.3 * (lambda S: S + S.T)(rng.normal(size=(4, 4))) + 1j * (q * [0.4, 1.0, 2.0, 4.5]) @ q.T
    z = rng.uniform(-40.0, 40.0, (512, 4)) + 1j * (rng.uniform(-3.5, 3.5, (512, 4)) @ B.imag)
    lattice = _ThetaLattice(B)
    scale, osc = lattice(z)
    ref_scale, ref_osc = theta_terms_reference(lattice, z, dtype=np.clongdouble)
    rows["theta evaluator, genus 4, Im B eigenvalues 0.4-4.5, 512 arguments"] = {
        "ms": median_ms(lambda: lattice(z), 15),
        "osc_err": float(np.max(np.abs(osc * np.exp(scale - ref_scale) - ref_osc))),
    }
    return rows


def fft_calls(run) -> int:
    """The numpy.fft.fft and ifft calls that ``run()`` makes, counted by
    perfbench's tracer."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.summary(1.0, ["numpy.fft.calls"])["numpy.fft.calls"]


def stepping_rows() -> dict:
    """Time and check the deformed_rk4 spec's run at two steps with the
    rakns on sys.path."""
    import math

    import numpy as np

    from rakns.evolve import EvolveError, FlowSpec, Sinusoid, evolve_run
    from rakns.solutions import soliton
    from rakns.spectral import Grid, sample_onto_grid

    schedules = ((1, 1.0, 2.0), (2, 0.3, 3.0), (3, 0.05, 1.0))  # (k, amplitude, frequency)
    spec = FlowSpec([(k, Sinusoid(amp, freq)) for k, amp, freq in schedules])
    grid, t_end = Grid(2048, 320.0), 0.02
    f0 = sample_onto_grid(soliton(1.0), grid, ())
    times = tuple(amp * math.sin(freq * t_end) for _, amp, freq in schedules)
    exact = sample_onto_grid(soliton(1.0), grid, times, t=t_end).values
    rows = {}
    for dt in (1.25e-4, 2.5e-4):
        name = f"evolve_run, deformed_rk4 spec, auto, n = 2048, T = 0.02, dt = {dt:g}"
        try:
            evolve_run(f0, spec, 2 * dt, dt, method="auto")  # compile the plans
        except EvolveError as exc:
            rows[name] = {"refused": f"{type(exc).__name__}: {exc}"}
            continue
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            final = evolve_run(f0, spec, t_end, dt, method="auto").final
            samples.append(time.perf_counter() - t0)
        err = float(np.max(np.abs(final.values - exact)))
        calls = fft_calls(lambda: evolve_run(f0, spec, t_end, dt, method="auto"))
        rows[name] = {"ms": statistics.median(samples) * 1e3, "err_vs_sampler": err, "fft_calls": calls}
    return rows


def io_rows() -> dict:
    """Time one field file's write and read with the rakns on sys.path."""
    import numpy as np

    from rakns.spectral import Field, Grid, read_field, write_field

    rng = np.random.default_rng(0)
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.txt"
        for n in (256, 2048):
            f = Field(Grid(n, 40.0), rng.normal(size=n) + 1j * rng.normal(size=n), 0.125)
            write_us = median_seconds(lambda: write_field(f, path), IO_REPS) * 1e6
            read_us = median_seconds(lambda: read_field(path), IO_REPS) * 1e6
            size = path.stat().st_size
            differing = np.count_nonzero(read_field(path).values.view(np.uint64) != f.values.view(np.uint64))
            rows[f"write_field, one file, n = {n}"] = {"us": write_us, "bytes": size}
            rows[f"read_field, one file, n = {n}"] = {
                "us": read_us, "bytes": size, "roundtrip_doubles_differing": int(differing)}
    return rows


def run_rows() -> dict:
    """Time the cli_hnls5 workload's evolve and verify residual in-process
    with the rakns on sys.path."""
    import contextlib
    import io
    import re

    import numpy as np

    import rakns.cli
    from rakns.spectral import read_field
    from workloads import CliHnls5

    def cli(argv: list) -> tuple:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rakns.cli.main(argv)
        return time.perf_counter() - t0, out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        work = CliHnls5(rakns, 1, Path(tmp), ROOT)
        evolve = ["evolve", "--config", str(work.config), "--initial", str(work.init), "--out", str(work.out)]
        verify = ["verify", "residual", "--snapshots", str(work.out), "--config", str(work.config)]
        evolve_s, verify_s = [], []
        for _ in range(RUN_REPS):
            shutil.rmtree(work.out, ignore_errors=True)
            evolve_s.append(cli(evolve)[0])
            seconds, text = cli(verify)
            verify_s.append(seconds)
        last = max(work.out.glob("snap_*.txt"), key=lambda p: int(p.stem[5:]))
        err = float(np.max(np.abs(read_field(last).values - work.exact)))
    return {"cli_hnls5 repetition in-process: evolve + verify residual, seed 1": {
        "ms": statistics.median(e + v for e, v in zip(evolve_s, verify_s)) * 1e3,
        "evolve_ms": statistics.median(evolve_s) * 1e3,
        "verify_ms": statistics.median(verify_s) * 1e3,
        "err_vs_exact": err,
        "worst_residual": float(re.search(r"worst residual (\S+)", text).group(1)),
    }}


def measure(checkout: Path) -> dict:
    code = ("import json, sys; sys.path[:0] = sys.argv[1:]; import record; print(json.dumps("
            "{**record.analytic_rows(), **record.stepping_rows(), **record.io_rows(), **record.run_rows()}))")
    paths = [checkout / "src", ROOT / "tests", ROOT / "bench", ROOT / "perfbench"]
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, paths)], stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)


def time_fresh(src: Path, code: str) -> float:
    """Seconds that ``code`` takes in a fresh interpreter with numpy already
    imported and ``src`` first on its path; no bytecode is written."""
    script = (f"import sys, time, numpy; sys.path.insert(0, {str(src)!r})\n"
              f"t0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - t0)")
    out = subprocess.run(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout
    return float(out.splitlines()[-1])


def import_rows(checkouts: dict) -> dict:
    """Median ms of each IMPORTS case per side, cold then warm, alternating
    which side runs first."""
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {}
        for side, checkout in checkouts.items():
            srcs[side] = Path(tmp) / side
            shutil.copytree(Path(checkout) / "src", srcs[side],
                            ignore=shutil.ignore_patterns("__pycache__"))
        rows: dict = {name: {side: {} for side in checkouts} for name in IMPORTS}
        for state in ("cold", "warm"):
            if state == "warm":
                for src in srcs.values():
                    compileall.compile_dir(src, quiet=1)
            samples = {(name, side): [] for name in IMPORTS for side in checkouts}
            for r in range(IMPORT_ROUNDS):
                order = list(checkouts) if r % 2 == 0 else list(checkouts)[::-1]
                for side in order:
                    for name, code in IMPORTS.items():
                        samples[name, side].append(time_fresh(srcs[side], code))
            for (name, side), values in samples.items():
                rows[name][side][f"{state}_ms"] = statistics.median(values) * 1e3
    return rows


def src_lines(checkout: Path) -> int:
    """Lines of the Python files of src/rakns, as ``wc -l`` counts them."""
    return sum(path.read_text().count("\n") for path in (checkout / "src" / "rakns").glob("*.py"))


def cmd_write(args) -> None:
    samples: dict = {"parent": [], "change": []}
    for r in range(ROUNDS):
        order = [("parent", args.parent), ("change", args.change)]
        for side, checkout in order if r % 2 == 0 else order[::-1]:
            samples[side].append(measure(Path(checkout)))
    analytic = {}
    for name in samples["parent"][0]:
        row = {}
        for side in ("parent", "change"):
            runs = [s[name] for s in samples[side]]
            row[side] = runs[0] if "refused" in runs[0] else {
                key: statistics.median(run[key] for run in runs) for key in runs[0]}
        unit = next((u for u in ("ms", "us") if all(u in row[side] for side in ("parent", "change"))), None)
        if unit:
            ratios = [c[name][unit] / p[name][unit] for p, c in zip(samples["parent"], samples["change"])]
            q1, q2, q3 = quartiles(ratios)
            row["change_over_parent"] = {"rounds": ratios, "q1": q1, "median": q2, "q3": q3}
        analytic[name] = row
    existing = sorted(ROOT.glob("BENCH_*.json"))
    path = existing[-1] if existing else ROOT / f"BENCH_{datetime.date.today().isoformat()}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append({
        "date": datetime.date.today().isoformat(),
        "parent": args.parent_label,
        "change": args.change_label,
        "host": "2-core shared host, numpy only; times are medians, ms",
        "src_lines": {side: src_lines(Path(checkout)) for side, checkout in
                      (("parent", args.parent), ("change", args.change))},
        "analytic_rounds": ROUNDS,
        "analytic": analytic,
        "import": {"processes": IMPORT_ROUNDS,
                   **import_rows({"parent": args.parent, "change": args.change})},
        "end_to_end": summarise(Path(args.runs)) if args.runs else {},
    })
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"appended to {path.name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("pairs", "write"):
        p = sub.add_parser(name)
        p.add_argument("--parent", required=True)
        p.add_argument("--change", required=True)
    sub.choices["pairs"].add_argument("--workload", required=True)
    sub.choices["pairs"].add_argument("--seeds", required=True, help="first-last, inclusive")
    sub.choices["pairs"].add_argument("--out", required=True)
    sub.choices["write"].add_argument("--runs", help="directory of pair runs to summarise")
    sub.choices["write"].add_argument("--parent-label", required=True)
    sub.choices["write"].add_argument("--change-label", required=True)
    args = ap.parse_args(argv)
    {"pairs": cmd_pairs, "write": cmd_write}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
