"""The public surface that callers bind by name: ``rakns.__all__`` and the
functions the benchmark tracer wraps (perfbench/tracer.py ``TARGETS``), so
a refactor that drops one fails here before it breaks a traced run.  Also
what a run loads: ``import rakns`` loads no submodule, and the exact
layer's commands load neither numpy nor the numerical modules.  And the
library keeps no function that nothing outside the tests calls."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rakns
import rakns.hierarchy

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = Path(rakns.__file__).resolve().parents[1]

# The public names under their home submodules; joined in this order they
# are ``rakns.__all__`` as it was when every name was imported eagerly.
PUBLIC = {
    "diffpoly": [
        "DiffPoly", "GaussianRational", "MatrixDP", "NotExact", "dp_antidx", "dp_dx",
        "dp_reduce", "euler_derivative", "jet", "render",
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
        "SymmetryParams", "identity_errors", "transform_solution",
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
    assert loaded_after("import rakns; rakns.symmetry.transform_solution") >= {"rakns.symmetry", "numpy"}


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


# Public names that no code outside the tests uses yet, each with the reason
# it stays public.
KEPT_WITHOUT_CALLER = {
    "euler_derivative": "the variational derivative that the exact proof of the theorem for "
    "every flow and the conserved integrals of every order build on",
    "step": "the single-step API that the README documents",
}


def _names_used(tree: ast.Module) -> set:
    """The names, attribute names and imported names in ``tree``; within a
    top-level definition, its own name does not count."""
    used = set()
    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.name
            else:
                continue
            if name != own:
                used.add(name)
    return used


def _load_tracer():
    """perfbench/tracer.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_public_name_has_a_caller_outside_the_tests():
    """Library code that only tests call moves into the tests or goes away:
    each name in ``__all__`` is called, imported or named by the library
    (the export table aside), a demo, the bench recorder or the tracer's
    TARGETS, unless it is kept for a stated reason.  The scan goes by name,
    so a local of the same name counts too (``step`` in ``solutions``)."""
    files = [*(SRC / "rakns").glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    traced = {s for target in _load_tracer().TARGETS for s in target if isinstance(s, str)}
    used = traced.union(*(_names_used(ast.parse(path.read_text())) for path in files))
    assert [name for name in rakns.__all__ if name not in used and name not in KEPT_WITHOUT_CALLER] == []
    assert set(KEPT_WITHOUT_CALLER) <= set(rakns.__all__)


def test_every_private_function_and_class_has_a_caller_in_the_library():
    """A module-level private function or class that the library no longer
    calls is dead code: each is named in ``src/rakns`` outside its own
    definition.  The scan goes by name, as for the public names."""
    trees = [ast.parse(path.read_text()) for path in (SRC / "rakns").glob("*.py")]
    used = set().union(*map(_names_used, trees))
    defined = [node.name for tree in trees for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    private = [name for name in defined if name.startswith("_") and not name.endswith("__")]
    assert private and [name for name in private if name not in used] == []


def _own_nodes(fn: ast.FunctionDef):
    """The nodes of ``fn``'s body, not those of a function defined in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_cli_has_one_failure_path():
    """``main`` is the only code in cli.py that names stderr, and no command
    returns a value: a command prints its results or raises, and ``main``
    alone turns what it raised into the one 'error:' line and the exit code."""
    tree = ast.parse((SRC / "rakns" / "cli.py").read_text())
    writers = [
        getattr(node, "name", "<module>")
        for node in tree.body
        if {"stderr", "__stderr__"} & _names_used(ast.Module([node], []))
    ]
    assert writers == ["main"]
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    returning = [fn.name for fn in commands for sub in _own_nodes(fn) if isinstance(sub, ast.Return) and sub.value is not None]
    assert commands and returning == []


# The library's exception classes that are neither bad input nor a failed
# check, each with the reason it stays outside cli._exit_code's rule.
OUTSIDE_THE_EXIT_RULE = {
    "cli.CliError": "carries its own exit code",
    "diffpoly.NotExact": "build_flows wraps it into hierarchy.RecursionBroken",
}


def test_every_library_error_is_bad_input_or_a_failed_check():
    """cli._exit_code decides by type alone: a ValueError is bad input
    (exit 2) and an instance of a class of cli._FAILED a failed check or a
    breakdown (exit 1).  Every exception class that a module of src/rakns
    defines is one of these or listed above, so none ends a run in a
    traceback unnoticed."""
    from rakns.cli import _FAILED

    failed = tuple(getattr(importlib.import_module(f"rakns.{m}"), n) for m, n in _FAILED)
    outside = []
    for path in sorted((SRC / "rakns").glob("*.py")):
        module = importlib.import_module("rakns" if path.stem == "__init__" else f"rakns.{path.stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                if not issubclass(obj, (ValueError, *failed)):
                    outside.append(f"{path.stem}.{name}")
    assert sorted(outside) == sorted(OUTSIDE_THE_EXIT_RULE)


def test_only_the_bound_plan_and_the_oracle_route_read_the_multipliers():
    """``_BoundPlan`` is the one code that evaluates a plan on a grid, and
    the linear symbol comes off the multipliers it bound: in the library
    only it and ``spectral_derivative``, the oracles' independent route,
    read ``_multipliers``."""
    readers = []
    for path in (SRC / "rakns").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if "_multipliers" in _names_used(ast.Module([node], [])):
                readers.append(getattr(node, "name", "<module>"))
    assert sorted(readers) == ["_BoundPlan", "spectral_derivative"]


def test_every_test_module_imports():
    """The tier-1 run goes on past a collection error, so a test module
    that stops importing (a name it imports is gone from the library)
    shows as one ERROR line, and its tests drop out of the count unseen.
    Each module must import, and one that does not is named here."""
    failures = {}
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        try:
            importlib.import_module(path.stem)
        except Exception as exc:
            failures[path.name] = f"{type(exc).__name__}: {exc}"
    assert failures == {}


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
    tracer = _load_tracer()
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
