"""The public surface that callers bind by name: ``rakns.__all__`` and the
functions the benchmark tracer wraps (perfbench/tracer.py ``TARGETS``), so
a refactor that drops one, or stops calling it by name, fails here before
it breaks a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rakns
import rakns.hierarchy

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_all_names_resolve():
    missing = [name for name in rakns.__all__ if not hasattr(rakns, name)]
    assert not missing


def test_traced_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


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
