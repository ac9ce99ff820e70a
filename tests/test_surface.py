"""The public surface that callers bind by name: ``rakns.__all__`` and the
functions the benchmark tracer wraps (perfbench/tracer.py ``TARGETS``), so
a refactor that drops one fails here before it breaks a traced run.  Also
what a run loads: ``import rakns`` loads no submodule, and the exact
layer's commands load neither numpy nor the numerical modules."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rakns
import rakns.hierarchy

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(rakns.__file__).resolve().parents[1]

# The public names under their home submodules; joined in this order they
# are ``rakns.__all__`` as it was when every name was imported eagerly.
PUBLIC = {
    "diffpoly": [
        "DiffPoly", "GaussianRational", "MatrixDP", "NotExact", "dp_antidx", "dp_conjugate",
        "dp_dx", "dp_eval", "dp_reduce", "euler_derivative", "is_exact", "jet", "render",
    ],
    "hierarchy": [
        "FlowTable", "build_flows", "conserved_density", "default_flow_table", "scalar_H",
        "zero_curvature_check",
    ],
    "spectral": [
        "EvalPlan", "Field", "Grid", "compile_plan", "conserved_integral", "eval_rhs",
        "read_field", "residual", "sample_onto_grid", "spectral_derivative", "write_field",
    ],
    "evolve": [
        "Blowup", "Bump", "FlowSpec", "Linear", "Poly", "Sinusoid", "StabilityViolation",
        "evolve_run", "step",
    ],
    "solutions": [
        "RiemannData", "Sampler", "finite_gap_sample", "finite_gap_sampler", "moduli_transform",
        "peregrine", "plane_wave", "random_riemann_data", "soliton", "theta",
    ],
    "symmetry": [
        "SymmetryParams", "hirota_closed_form", "identity_errors", "phase_factor", "scaling",
        "transform_arguments", "transform_solution",
    ],
    "config": ["parse_config", "preset_flow_spec"],
}


def loaded_after(code: str) -> set:
    """The rakns modules and numpy in ``sys.modules`` of a fresh interpreter
    after it runs ``code`` with this checkout's rakns first on its path."""
    script = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] in ('rakns', 'numpy')]))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert loaded_after("import rakns") == {"rakns"}


def test_submodule_attribute_imports_it():
    assert loaded_after("import rakns; rakns.symmetry.scaling") >= {"rakns.symmetry", "numpy"}


def test_exact_layer_commands_load_no_numerical_module():
    loaded = loaded_after(
        "from rakns.cli import main\n"
        "assert main(['hierarchy', 'verify', '--max-order', '2']) == 0\n"
        "assert main(['hierarchy', 'show', '--order', '3']) == 0"
    )
    assert "numpy" not in loaded
    assert not loaded & {f"rakns.{m}" for m in ("spectral", "evolve", "solutions", "symmetry", "config")}
    assert {"rakns.cli", "rakns.hierarchy", "rakns.diffpoly"} <= loaded



def test_analytic_layer_loads_no_exact_module(tmp_path):
    """The finite-gap path, the closed-form samplers and the analytic CLI
    commands run without the exact layer, the config parser or the
    stepper: none of them is imported along the way."""
    loaded = loaded_after(
        f"path = {str(tmp_path / 'rd.json')!r}\n"
        "import rakns\n"
        "open(path, 'w').write(rakns.random_riemann_data(2, 5, rng=1).to_json())\n"
        "data = rakns.RiemannData.from_json(open(path).read())\n"
        "grid = rakns.Grid(64, 20.0)\n"
        "rakns.sample_onto_grid(rakns.finite_gap_sampler(data), grid, (0.1, 0.2))\n"
        "rakns.moduli_transform(data, 1.3, 0.2)\n"
        "rakns.identity_errors(data, rakns.SymmetryParams(1.3, 0.2), 5)\n"
        "for s in (rakns.plane_wave(1.2), rakns.soliton(0.8), rakns.peregrine()):\n"
        "    rakns.sample_onto_grid(s, grid, (0.1,))\n"
        "from rakns.cli import main\n"
        "assert main(['identity', 'check', '--a', '1.2', '--b', '0.1']) == 0\n"
        "assert main(['identity', 'check', '--a', '1.2', '--b', '0.1', '--riemann', path]) == 0\n"
        "for argv in (['finitegap', '--riemann', path], ['planewave'], ['soliton']):\n"
        "    assert main(['sample', '--solution', *argv, '--grid', '16,10']) == 0"
    )
    assert not loaded & {f"rakns.{m}" for m in ("diffpoly", "hierarchy", "config", "evolve")}
    assert {"rakns.spectral", "rakns.solutions", "rakns.symmetry", "rakns.cli"} <= loaded

def test_all_is_unchanged():
    assert rakns.__all__ == [name for names in PUBLIC.values() for name in names]


def test_dir_lists_public_names():
    assert set(rakns.__all__) <= set(dir(rakns))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rakns.no_such_name


def test_package_name_follows_a_rebinding_of_its_home(monkeypatch):
    """No copy is kept in the package: a patched home-module attribute is what
    ``rakns.<name>`` returns, and the original returns after undo."""
    import rakns.spectral

    original = rakns.spectral.read_field

    def patched(path):
        return original(path)

    monkeypatch.setattr(rakns.spectral, "read_field", patched)
    assert rakns.read_field is patched
    monkeypatch.undo()
    assert rakns.read_field is original


def test_no_tracer_wrapper_outlives_uninstall():
    """The benchmark tracer rebinds attributes on the home modules.  In a
    fresh process, as in a traced benchmark run, the package's names are
    first read while it is installed; after uninstall they are the
    originals again, so the untraced repetitions run untraced."""
    loaded_after(
        "import importlib, importlib.util, rakns\n"
        f"public = {PUBLIC!r}\n"
        "original = {(m, n): getattr(importlib.import_module('rakns.' + m), n)\n"
        "            for m, names in public.items() for n in names}\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "traced = {n: getattr(rakns, n) for n in rakns.__all__}\n"
        "t.uninstall()\n"
        "assert traced['read_field'] is not original['spectral', 'read_field']\n"
        "stale = [n for (m, n), obj in original.items() if getattr(rakns, n) is not obj]\n"
        "assert not stale, stale"
    )


def test_all_names_resolve():
    """``from rakns import *`` binds every public name to its home module's
    object, which is also what ``rakns.<name>`` returns."""
    namespace: dict = {}
    exec("from rakns import *", namespace)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"rakns.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name) is getattr(rakns, name), name


def test_traced_targets_exist():
    """Every (module, attribute) of the tracer's TARGETS, read from its file,
    exists and is callable: install() looks each one up, so a missing one
    makes a traced run raise AttributeError.  diffpoly.mat_commutator is
    one that the library itself no longer calls."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracer.TARGETS and not missing


@pytest.mark.parametrize("K", [1, 4, 7])
def test_build_flows_integrates_once_per_order(monkeypatch, K):
    """build_flows calls dp_antidx by name through rakns.hierarchy, once for
    each of the K + 1 diagonal matrices (D_22 comes from D_11)."""
    calls = []
    original = rakns.hierarchy.dp_antidx

    def counting(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(rakns.hierarchy, "dp_antidx", counting)
    rakns.hierarchy.build_flows(K)
    assert len(calls) == K + 1
