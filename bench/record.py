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
BENCH_<today>.json.

The analytic rows: building the theta lattice, sampling 256 points of
finite-gap data at genus 1-3, and the theta evaluator on an ill-conditioned
genus-4 matrix.  Next to each time is an accuracy: the largest pointwise
relative error of psi, or of the oscillatory sum relative to its largest
term, against the one-exp-per-point sum of tests/oracles.py.

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
ROUNDS = 5  # fresh processes per checkout for the analytic rows
IMPORT_ROUNDS = 11  # fresh processes per checkout, cold and warm, for the import rows
IMPORTS = {
    "import rakns": "import rakns",
    "import rakns.cli": "import rakns.cli",
    "rakns hierarchy verify --max-order 7 (import and cli.main)":
        "import rakns.cli; rakns.cli.main(['hierarchy', 'verify', '--max-order', '7'])",
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


def analytic_rows() -> dict:
    """Time and check the analytic layer of the rakns on sys.path."""
    import numpy as np

    from oracles import theta_terms_reference
    from rakns.solutions import _ThetaLattice, finite_gap_sampler, random_riemann_data

    def median_ms(fn, reps):
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1e3

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


def measure(checkout: Path) -> dict:
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2], sys.argv[3]]; "
            "import record; print(json.dumps(record.analytic_rows()))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(checkout / "src"), str(ROOT / "tests"), str(ROOT / "bench")],
        stdout=subprocess.PIPE, text=True, check=True).stdout
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
            row[side] = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
        analytic[name] = row
    existing = sorted(ROOT.glob("BENCH_*.json"))
    path = existing[-1] if existing else ROOT / f"BENCH_{datetime.date.today().isoformat()}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append({
        "date": datetime.date.today().isoformat(),
        "parent": args.parent_label,
        "change": args.change_label,
        "host": "2-core shared host, numpy only; times are medians, ms",
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
