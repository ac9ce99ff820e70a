"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_hnls5 --seed 1 --seconds 15 --trace 0

Run from anywhere; the checkout is the directory above this one, and rakns
is imported from its ``src/``.  With ``--trace 0`` the end-to-end metrics
of BENCHMARK.json are measured: ``setup_s`` is the median over
SETUP_PROCESSES fresh processes, ``solve_s`` the median repetition of the
last of them.  With ``--trace 1`` one process runs its set-up and
TRACE_REPS repetitions traced, then untraced repetitions, and reports
BENCHMARK.json's per-layer metrics.  Processes run one at a time.

Every metric is printed by name and unit, then the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Any error
of the benchmark itself is reported in one line on stderr, with exit
code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_hnls5", "deformed_rk4", "hierarchy_audit", "finite_gap")
SETUP_PROCESSES = 11
SETUP_TIMEOUT_S = 30.0
SOLVE_TIMEOUT_S = 90.0  # on top of --seconds


class BenchError(Exception):
    pass


def worker(args, role: str, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--role", role,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_checkout() -> None:
    for need in ("src/rakns/__init__.py", "tests/golden/H1.json", "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{ROOT} is not a rakns checkout: {need} is missing")


def report(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        solve = worker(args, "solve", args.seconds + SOLVE_TIMEOUT_S)
        values = solve["per_layer"]
        wanted = spec["per_layer"]
    else:
        setups = [worker(args, "setup", SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        solve = worker(args, "solve", args.seconds + SOLVE_TIMEOUT_S)
        values = {
            "setup_s": statistics.median(setups + [solve["setup_s"]]),
            "solve_s": solve["solve_s"],
            "peak_rss_mb": solve["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}: {solve['reps']} repetitions "
          f"(median reported), {solve['attempted']} operations, {solve['failed']} failed")
    for key, count in sorted(solve["failures"].items()):
        print(f"  failed: {key} x{count}")
    accuracy = {"err_max": solve["err_max"], "drift_max": solve["drift_max"],
                "resid_max": solve["resid_max"],
                "fail_frac": solve["failed"] / solve["attempted"]}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in accuracy.items():
            print(f"{name:34s} {value:.6g} 1")
    print(f"{'(reference kernel, host)':34s} {solve['kernel_ms']:.4g} ms")
    print(f"{'(median repetition, host)':34s} {solve['raw_solve_s']:.6g} s")
    return {"correct": solve["correct"], "attempted": solve["attempted"],
            "failed": solve["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_checkout()
        result = report(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
