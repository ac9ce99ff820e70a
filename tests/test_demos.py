"""The demos run as scripts, through the public API only, and print the
accuracy they claim."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _numbers(pattern: str, text: str) -> list:
    found = [float(v) for v in re.findall(pattern, text)]
    assert found, f"no line matches {pattern!r}"
    return found


def test_hierarchy_tour():
    out = _run("01_hierarchy_tour.py")
    assert out.count("overall: pass") == 5
    assert "H_5 = psi_xxxxxx" in out


def test_soliton_and_hirota():
    """IF-RK4 (the default for a constant mix) lands on the sampler."""
    out = _run("02_soliton_and_hirota.py")
    assert _numbers(r"deviation from the sampler = (\S+)", out)[0] <= 1e-10
    drifts = _numbers(r"drift (\S+) \(relative to mass\)", out)
    assert len(drifts) == 3
    assert max(drifts) <= 1e-11


def test_finite_gap_and_affine():
    out = _run("03_finite_gap_and_affine.py")
    for kind in ("argument", "phase"):
        assert _numbers(kind + r" identity error:\s+(\S+)", out)[0] <= 1e-13
