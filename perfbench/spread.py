"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload finite_gap --runs 10

Runs run.py once for each seed 1..runs, one run at a time, for
BENCHMARK.json's run_seconds, and prints for every
end-to-end metric its median, quartiles and (Q3 - Q1) / median, the
figure BENCHMARK.json's bounds are set against, and whether every run
failed the same fraction of its operations (two sets of runs must agree
on that fraction).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {}
    fail_fracs = set()
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: m["value"] for k, m in result["metrics"].items()}
        fail_fracs.add(Fraction(result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(f"{k}={v:.5g}" for k, v in row.items()),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {name}: median {med:.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}  "
              f"spread {(q3 - q1) / med:.4f}  (bound {bounds[name]})")
    same = "the same in every run" if len(fail_fracs) == 1 else "NOT the same in every run"
    print(f"{args.workload} failed fraction: {', '.join(map(str, sorted(fail_fracs)))}  ({same})")
    return 0 if len(fail_fracs) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
