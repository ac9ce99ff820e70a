"""Smoke tests of the benchmark itself (not part of the rakns test suite).

    python3 -m pytest perfbench -q

Each workload completes a tiny untraced and traced run, reports exactly
the metric names and units of BENCHMARK.json, fails the same fraction of
its operations whatever the seed, and repeats its traced call counts for
the same seed; outside a checkout the benchmark refuses to run.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that are counts of work, not times or ratios of noise.
COUNTS = ("calls", "bytes", "terms", "steps", "rhs_per_step", "fft_per_step", "theta_per_point")


def run(workload: str, trace: int, root: Path = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def units(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    fail_fracs = set()
    for seed in (7, 8):
        proc = run(workload, 0, seed=seed)
        result = result_of(proc)
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units(SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
        printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line.strip()}
        assert set(units(SPEC["end_to_end"])) <= printed
        fail_fracs.add(Fraction(result["failed"], result["attempted"]))
    assert len(fail_fracs) == 1, fail_fracs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_its_counts(workload):
    first, second = (result_of(run(workload, 1))["metrics"] for _ in range(2))
    assert {k: m["unit"] for k, m in first.items()} == units(SPEC["per_layer"])
    counts = [k for k in first if k.rsplit(".", 1)[-1] in COUNTS]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("hierarchy_audit", 0, root=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
