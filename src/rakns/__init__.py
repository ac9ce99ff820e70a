"""rakns: exact generation, numerical integration, and symmetry analysis
of the zero-curvature hierarchy built on the 2x2 spectral problem.

The exact layer (`diffpoly`, `hierarchy`) works in Gaussian-rational
arithmetic; the numerical layer (`spectral`, `evolve`) compiles the same
polynomials onto periodic grids; `solutions` and `symmetry` provide
analytic samplers, Riemann theta functions, and the two-parameter
scaling-boost group acting on all of it.
"""

from .diffpoly import (
    DiffPoly,
    GaussianRational,
    MatrixDP,
    NotExact,
    dp_antidx,
    dp_conjugate,
    dp_dx,
    dp_eval,
    dp_reduce,
    euler_derivative,
    is_exact,
    jet,
    render,
)
from .hierarchy import (
    FlowTable,
    build_flows,
    conserved_density,
    default_flow_table,
    scalar_H,
    zero_curvature_check,
)
from .spectral import (
    EvalPlan,
    Field,
    Grid,
    compile_plan,
    conserved_integral,
    eval_rhs,
    read_field,
    residual,
    sample_onto_grid,
    spectral_derivative,
    write_field,
)
from .evolve import (
    Blowup,
    Bump,
    FlowSpec,
    Linear,
    Poly,
    Sinusoid,
    StabilityViolation,
    evolve_run,
    step,
)
from .solutions import (
    RiemannData,
    Sampler,
    finite_gap_sample,
    finite_gap_sampler,
    moduli_transform,
    peregrine,
    plane_wave,
    random_riemann_data,
    soliton,
    theta,
)
from .symmetry import (
    SymmetryParams,
    hirota_closed_form,
    identity_errors,
    phase_factor,
    scaling,
    transform_arguments,
    transform_solution,
)
from .config import parse_config, preset_flow_spec

__version__ = "0.1.0"

__all__ = [
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
    "FlowTable",
    "build_flows",
    "conserved_density",
    "default_flow_table",
    "scalar_H",
    "zero_curvature_check",
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
    "Blowup",
    "Bump",
    "FlowSpec",
    "Linear",
    "Poly",
    "Sinusoid",
    "StabilityViolation",
    "evolve_run",
    "step",
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
    "SymmetryParams",
    "hirota_closed_form",
    "identity_errors",
    "phase_factor",
    "scaling",
    "transform_arguments",
    "transform_solution",
    "parse_config",
    "preset_flow_spec",
]
