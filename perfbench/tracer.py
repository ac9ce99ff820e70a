"""Span tracer for the traced run.

It wraps public rakns functions at module boundaries, and numpy's
``fft``/``ifft``, by rebinding module attributes; nothing in ``src/`` is
changed.  Every module of the ``rakns`` package that holds a reference to
a wrapped function (``from .spectral import eval_rhs`` makes one) gets the
wrapper, so calls across modules and within one module are both seen.
Each call records a span (name, start, end, parent id, whether it
raised); spans stay in memory until ``dump`` writes them once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


def _evolve_steps(counts, name, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    counts["evolve.steps"] += int(round(bound["t_end"] / bound["dt"]))


def _file_bytes(path_index):
    def hook(counts, name, fn, args, kwargs):
        counts[f"{name}.bytes"] += os.path.getsize(args[path_index])

    return hook


# (module, attribute, span name, counter hook run after each call that returns)
TARGETS = (
    ("rakns.hierarchy", "build_flows", "hierarchy.build_flows", None),
    ("rakns.hierarchy", "zero_curvature_check", "hierarchy.zero_curvature_check", None),
    ("rakns.diffpoly", "dp_antidx", "diffpoly.dp_antidx", None),
    ("rakns.diffpoly", "mat_commutator", "diffpoly.mat_commutator", None),
    ("rakns.diffpoly", "dp_reduce", "diffpoly.dp_reduce", None),
    ("rakns.spectral", "compile_plan", "spectral.compile_plan", None),
    ("rakns.spectral", "eval_rhs", "spectral.eval_rhs", None),
    ("rakns.spectral", "spectral_derivative", "spectral.spectral_derivative", None),
    ("rakns.spectral", "conserved_integral", "spectral.conserved_integral", None),
    ("rakns.spectral", "write_field", "spectral.write_field", _file_bytes(1)),
    ("rakns.spectral", "read_field", "spectral.read_field", _file_bytes(0)),
    ("rakns.spectral", "residual", "spectral.residual", None),
    ("rakns.spectral", "sample_onto_grid", "spectral.sample_onto_grid", None),
    ("rakns.config", "parse_config", "config.parse_config", None),
    ("rakns.cli", "main", "cli.main", None),
    ("rakns.evolve", "evolve_run", "evolve.evolve_run", _evolve_steps),
    ("rakns.solutions", "theta", "solutions.theta", None),
    ("rakns.solutions", "finite_gap_sample", "solutions.finite_gap_sample", None),
    ("rakns.solutions", "moduli_transform", "solutions.moduli_transform", None),
    ("rakns.symmetry", "identity_errors", "symmetry.identity_errors", None),
    ("numpy.fft", "fft", "numpy.fft", None),
    ("numpy.fft", "ifft", "numpy.fft", None),
)

# Spans under these own the eval_rhs and FFT calls below them; the per-step
# ratios count only what a stepper run that returned did itself, because the
# steps of a run that raised are not known.
_STEPPER, _CONSERVED = "evolve.evolve_run", "spectral.conserved_integral"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0  # recursion: time counted by the outer span
            active[name] += 1
            stack.append(sid)
            t0 = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                spans[sid] = (name, t0, t1, parent, nested, raised)
            if hook is not None:  # only after a call that returned
                hook(self.counts, name, fn, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        # Import every module first: one imported after patching would copy
        # a wrapper into its namespace that uninstall cannot see.
        modules = [importlib.import_module(t[0]) for t in TARGETS]
        holders = set(modules) | {
            m for key, m in sys.modules.items() if key == "rakns" or key.startswith("rakns.")
        }
        for module, (_, attr, name, hook) in zip(modules, TARGETS):
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def summary(self, factor: float, wanted) -> dict:
        """The per-layer metrics named in ``wanted`` that the spans give;
        seconds are multiplied by the kernel ``factor``."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        owner = [-1] * len(spans)  # nearest stepper or conserved-integral ancestor
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            if parent >= 0:  # parents precede their children
                child_s[parent] += t1 - t0
                owner[i] = parent if spans[parent][0] in (_STEPPER, _CONSERVED) else owner[parent]
        calls, total_s, self_s = Counter(), Counter(), Counter()
        stepper = Counter()
        for i, (name, t0, t1, _, nested, _) in enumerate(spans):
            calls[name] += 1
            if not nested:
                total_s[name] += t1 - t0
            self_s[name] += t1 - t0 - child_s[i]
            if owner[i] >= 0 and spans[owner[i]][0] == _STEPPER and not spans[owner[i]][5]:
                stepper[name] += 1
        steps = self.counts["evolve.steps"]
        points = calls["solutions.finite_gap_sample"]
        derived = {
            "evolve.steps": steps,
            "evolve.rhs_per_step": stepper["spectral.eval_rhs"] / steps if steps else 0.0,
            "evolve.fft_per_step": stepper["numpy.fft"] / steps if steps else 0.0,
            "solutions.theta_per_point": calls["solutions.theta"] / points if points else 0.0,
        }
        traced = {t[2] for t in TARGETS}
        out = {}
        for key in wanted:
            name, _, kind = key.rpartition(".")
            if key in derived:
                out[key] = derived[key]
            elif name not in traced:
                continue
            elif kind == "s":
                out[key] = total_s[name] * factor
            elif kind == "self_s":
                out[key] = self_s[name] * factor
            elif kind == "calls":
                out[key] = calls[name]
            elif kind == "bytes":
                out[key] = self.counts[key]
        return out

    def dump(self, path: Path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], t0 - origin, t1 - origin, parent, int(raised)]
                for n, t0, t1, parent, _, raised in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(meta, names=names, spans=rows, counts=dict(self.counts)), fh)
