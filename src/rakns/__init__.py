"""rakns: exact generation, numerical integration, and symmetry analysis
of the zero-curvature hierarchy built on the 2x2 spectral problem.

The exact layer (`diffpoly`, `hierarchy`) works in Gaussian-rational
arithmetic; the numerical layer (`spectral`, `evolve`) compiles the same
polynomials onto periodic grids; `solutions` and `symmetry` provide
analytic samplers, Riemann theta functions, and the two-parameter
scaling-boost group acting on all of it.

``import rakns`` loads none of these submodules: a public name imports its
home submodule on first use (PEP 562), so a run pays only for the layers it
touches.
"""

import importlib
import sys

__version__ = "0.1.0"

# The public names, each under the submodule that defines it.
_EXPORTS = {
    "diffpoly": (
        "DiffPoly",
        "GaussianRational",
        "MatrixDP",
        "NotExact",
        "dp_antidx",
        "dp_conjugate",
        "dp_dx",
        "dp_eval",
        "dp_reduce",
        "euler_derivative",
        "is_exact",
        "jet",
        "render",
    ),
    "hierarchy": (
        "FlowTable",
        "build_flows",
        "conserved_density",
        "default_flow_table",
        "scalar_H",
        "zero_curvature_check",
    ),
    "spectral": (
        "EvalPlan",
        "Field",
        "Grid",
        "compile_plan",
        "conserved_integral",
        "eval_rhs",
        "read_field",
        "residual",
        "sample_onto_grid",
        "spectral_derivative",
        "write_field",
    ),
    "evolve": (
        "Blowup",
        "Bump",
        "FlowSpec",
        "Linear",
        "Poly",
        "Sinusoid",
        "StabilityViolation",
        "evolve_run",
        "step",
    ),
    "solutions": (
        "RiemannData",
        "Sampler",
        "finite_gap_sample",
        "finite_gap_sampler",
        "moduli_transform",
        "peregrine",
        "plane_wave",
        "random_riemann_data",
        "soliton",
        "theta",
    ),
    "symmetry": (
        "SymmetryParams",
        "hirota_closed_form",
        "identity_errors",
        "phase_factor",
        "scaling",
        "transform_arguments",
        "transform_solution",
    ),
    "config": ("parse_config", "preset_flow_spec"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """A public name, read from its home submodule on every access and never
    stored here, so that a rebinding there (a test's monkeypatch, the
    benchmark tracer) is what ``rakns.<name>`` returns; a submodule name
    imports that submodule."""
    home = _HOME.get(name)
    if home is not None:
        return getattr(sys.modules.get(home) or importlib.import_module(home), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
