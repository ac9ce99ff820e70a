"""Command-line surface: inspect hierarchy flows, run evolutions, apply
symmetry transforms, verify residuals and identities, sample solutions.

Exit codes: 0 ok, 1 verification failed, 2 usage error.  A command prints or
raises; ``main`` alone writes stderr, one ``error: ...`` line per failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

# Each command imports the layers it uses when it runs: the exact layer's
# commands load neither numpy nor the numerical modules, and the analytic
# ones (sample, identity check) load no module of the exact layer.

OK, VERIFY_FAILED, USAGE = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, code=USAGE):
        super().__init__(message)
        self.code = code


_SAMPLER_PARAMS = {"planewave": ("q", "order"), "soliton": ("a", "order"), "peregrine": (), "finitegap": ("riemann",)}


def _parse_sampler(text: str, params: dict):
    """Sampler literal (a key of _SAMPLER_PARAMS) and the parameters it reads; any other is refused."""
    from .solutions import RiemannData, finite_gap_sampler, peregrine, plane_wave, soliton

    name = "planewave" if text.lower() == "plane_wave" else text.lower()
    if name not in _SAMPLER_PARAMS:
        raise CliError(f"unknown sampler {text!r}")
    unread = sorted(set(params) - set(_SAMPLER_PARAMS[name]))
    if unread:
        takes = ", ".join(_SAMPLER_PARAMS[name]) or "none"
        raise CliError(f"sampler {name} does not take {unread[0]!r} (it takes: {takes})")
    if name == "planewave":
        return plane_wave(_param(params, "q", float, 1.0), _param(params, "order", int, 5))
    if name == "soliton":
        return soliton(_param(params, "a", float, 1.0), _param(params, "order", int, 5))
    if name == "peregrine":
        return peregrine()
    if not params.get("riemann"):
        raise CliError("finitegap sampler needs a riemann data file")
    with open(params["riemann"]) as fh:
        return finite_gap_sampler(RiemannData.from_json(fh.read()))


def _param(params: dict, key: str, kind: type, default):
    """params[key] read as an int or a float, ``default`` if absent; a
    value that does not parse is refused by its key."""
    if key not in params:
        return default
    try:
        return kind(params[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise CliError(f"--param {key} must be {what}, got {params[key]!r}") from None


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise CliError(f"expected key=value parameter, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise CliError(f"--tol must be positive and finite, got {tol}")


def _verdict(command: str, checks, tol: float) -> None:
    """Fail ``command`` at the first (name, error) not below ``tol``; NaN fails."""
    for name, error in checks:
        if not error < tol:
            raise CliError(f"{command} failed: {name} {error:.3e} is not below --tol {tol:.3e}", VERIFY_FAILED)


def _parse_grid(text: str) -> Grid:
    from .spectral import Grid

    m = re.fullmatch(r"(\d+),([0-9.eE+-]+)", text.strip())
    if not m:
        raise CliError(f"grid must be 'N,L', got {text!r}")
    return Grid(int(m.group(1)), float(m.group(2)))


# -- subcommands -------------------------------------------------------------


def cmd_hierarchy_show(args) -> None:
    from . import hierarchy
    from .diffpoly import render

    table = hierarchy.build_flows(args.order)
    h = hierarchy.scalar_H(table, args.order)
    print(render(h, args.format))


def cmd_hierarchy_verify(args) -> None:
    from . import hierarchy

    table = hierarchy.build_flows(args.max_order)
    failed = []
    for report in hierarchy._curvature_reports(table, args.max_order):
        print(f"flow {report.flow_order}: {'pass' if report.passed else 'FAIL'}")
        if not report.passed:
            failed.append(report.flow_order)
    if failed:
        raise CliError(f"hierarchy verify failed: flow {failed[0]} does not satisfy zero curvature", VERIFY_FAILED)


def cmd_evolve(args) -> None:
    import numpy as np

    from .config import parse_config, parse_preset
    from .evolve import Blowup, evolve_run
    from .spectral import Grid, read_field, sample_onto_grid, write_field

    cfg = None
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    if args.preset:
        spec = parse_preset(args.preset)
    elif cfg is not None:
        spec = cfg.flow_spec()
    else:
        raise CliError("need --config or --preset to define the flows")
    sections = cfg.sections if cfg else {}
    grid_keys, time_keys = sections.get("grid", {}), sections.get("time", {})
    flag_grid = _parse_grid(args.grid) if args.grid else None
    if os.path.exists(args.initial):
        if args.param:  # a field file reads no sampler parameter
            raise CliError(f"--param {min(_parse_params(args.param))!r} is for a sampler --initial, not a field file")
        f0 = read_field(args.initial)
        stated = list(grid_keys.items())  # only the keys given
        if flag_grid:
            stated += [("n", flag_grid.n), ("length", flag_grid.length)]
        for key, value in stated:
            if value != getattr(f0.grid, key):
                raise CliError(f"grid {key} = {value} disagrees with the initial field's n={f0.grid.n}, L={f0.grid.length:.17g}")
    else:
        if flag_grid is None and cfg is None:
            raise CliError("need --grid N,L (or a [grid] config section)")
        grid = flag_grid or Grid(grid_keys.get("n", 256), grid_keys.get("length", 40.0))
        sampler = _parse_sampler(args.initial, _parse_params(args.param))
        f0 = sample_onto_grid(sampler, grid, ())
    dt = args.dt if args.dt is not None else time_keys.get("dt")
    t_end = args.t_end if args.t_end is not None else time_keys.get("t_end")
    if dt is None or t_end is None:
        raise CliError("need --dt and --t-end (or a [time] config section)")
    method = args.method or time_keys.get("method", "auto")
    stride = time_keys.get("snapshot_stride")
    if args.out and os.path.isdir(args.out):
        if any(re.fullmatch(r"snap_.*\.txt|conserved\.csv|last_good\.txt", f) for f in os.listdir(args.out)):
            raise CliError(f"--out {args.out} already holds a run's files; give an empty or new directory")
    try:
        traj = evolve_run(f0, spec, t_end, dt, method=method, snapshot_stride=stride)
    except Blowup as exc:
        if exc.last_good is not None and args.out:
            os.makedirs(args.out, exist_ok=True)
            write_field(exc.last_good, os.path.join(args.out, "last_good.txt"))
        raise CliError(f"blow-up: {exc}", VERIFY_FAILED) from None
    if args.out:
        traj.write(args.out)
        print(f"wrote {len(traj.fields)} snapshots to {args.out}")
    else:
        print(f"final time {traj.final.time:.6g}, max|psi| = {np.max(np.abs(traj.final.values)):.6g}")


def _residual_verdict(command: str, rows, tol: float) -> None:
    """Print each (label, residual) of ``rows`` as it comes and the worst; then the verdict."""
    checks = []
    for label, r in rows:
        print(f"{label}: residual {r:.3e}")
        checks.append((f"{label} residual", r))
    print(f"worst residual {max((r for _, r in checks), default=0.0):.3e}")
    _verdict(command, checks, tol)


def _difference_times(t: float) -> tuple:
    """t - 1e-5, t and t + 1e-5, the times of transform's residual; a t
    that these steps do not move is refused."""
    if abs(t) + 1e-5 == abs(t):
        raise CliError(f"--t {t:g} is too large for the residual's centred difference of step 1e-5")
    return t - 1e-5, t, t + 1e-5


def cmd_transform(args) -> None:
    from .evolve import FlowSpec, Linear
    from .spectral import residual, sample_onto_grid, write_field
    from .symmetry import SymmetryParams, transform_solution

    _check_tol(args.tol)
    if not math.isfinite(args.t):
        raise CliError(f"--t must be finite, got {args.t}")
    times = _difference_times(args.t)
    sampler = _parse_sampler(args.sampler, _parse_params(args.param))
    p = SymmetryParams(args.a, args.b)
    transformed = transform_solution(sampler, p)
    grid = _parse_grid(args.probe)
    if transformed.max_order < 1:  # a finite-gap sampler of no flow
        raise CliError(f"sampler {sampler.name} has no flow to check")
    rows = []
    for k in range(1, min(transformed.max_order, 5) + 1):
        fields = [sample_onto_grid(transformed, grid, (0.0,) * (k - 1) + (t,), t=t) for t in times]
        if not fields[1].values.any():  # a residual of zeros checks nothing
            raise CliError(f"transform failed: flow {k} is 0 at every probe node at --t {args.t:g}", VERIFY_FAILED)
        rows.append((f"flow {k}", residual(*fields, FlowSpec([(k, Linear(1.0))]))))
    if args.out:
        write_field(sample_onto_grid(transformed, grid, (args.t,), t=args.t), args.out)
    _residual_verdict("transform", rows, args.tol)


def cmd_verify_residual(args) -> None:
    from .config import parse_config
    from .spectral import read_field, residual

    _check_tol(args.tol)
    with open(args.config) as fh:
        spec = parse_config(fh.read()).flow_spec()
    snaps = sorted(
        (f for f in os.listdir(args.snapshots) if re.fullmatch(r"snap_\d+\.txt", f)),
        key=lambda f: int(f[5:-4]),
    )
    if len(snaps) < 3:
        raise CliError("need at least three snapshots", VERIFY_FAILED)
    fields = [read_field(os.path.join(args.snapshots, f)) for f in snaps]
    rows = ((f"t={f0.time:.6g}", residual(fm, f0, fp, spec)) for fm, f0, fp in zip(fields, fields[1:], fields[2:]))
    _residual_verdict("verify residual", rows, args.tol)


def cmd_sample(args) -> None:
    from .spectral import format_samples, sample_onto_grid, write_field

    params = _parse_params(args.param)
    if args.riemann:
        params["riemann"] = args.riemann
    sampler = _parse_sampler(args.solution, params)
    grid = _parse_grid(args.grid)
    f = sample_onto_grid(sampler, grid, tuple(float(t) for t in args.times or ()))
    if args.out:
        write_field(f, args.out)
        print(f"wrote field to {args.out}")
    else:
        print(format_samples(f.values), end="")


def cmd_identity_check(args) -> None:
    from .solutions import RiemannData, random_riemann_data
    from .symmetry import SymmetryParams, identity_errors

    _check_tol(args.tol)
    if args.riemann:
        with open(args.riemann) as fh:
            data = RiemannData.from_json(fh.read())
    else:
        data = random_riemann_data(args.genus, args.max_flow, rng=args.seed)
    errors = identity_errors(data, SymmetryParams(args.a, args.b), args.max_flow)
    print(f"argument identity error: {errors['argument']:.3e}")
    print(f"phase identity error:    {errors['phase']:.3e}")
    print("pass" if all(e < args.tol for e in errors.values()) else "FAIL")  # NaN fails
    _verdict("identity check", ((f"{name} error", e) for name, e in errors.items()), args.tol)


# The failed checks and numerical breakdowns, each by its home module: an
# instance of one exits 1; Blowup and StabilityViolation are EvolveErrors.
_FAILED = (("spectral", "SpectralError"), ("evolve", "EvolveError"), ("hierarchy", "RecursionBroken"))


def _exit_code(exc: Exception) -> int | None:
    """1 for a failed check (a class of ``_FAILED``) or a MemoryError, 2 for
    bad input (a ValueError or an OSError), None for any other error.  A
    class is looked up only in a module already loaded, because one that
    the run never imported cannot have raised it."""
    for module, name in _FAILED:
        home = sys.modules.get(f"{__package__}.{module}")
        if home is not None and isinstance(exc, getattr(home, name)):
            return VERIFY_FAILED
    if isinstance(exc, MemoryError):
        return VERIFY_FAILED
    return USAGE if isinstance(exc, (ValueError, OSError)) else None


class _Parser(argparse.ArgumentParser):
    """Hands a bad command line to main as a CliError, so that it prints one
    'error:' line and exits 2 like every other usage error, without
    argparse's usage block."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: a parse
    leaves no state in it."""
    ap = _Parser(prog="rakns", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    h = sub.add_parser("hierarchy", help="generate and audit hierarchy flows")
    hsub = h.add_subparsers(dest="subcommand", required=True)
    hs = hsub.add_parser("show", help="print a scalar flow H_k")
    hs.add_argument("--order", type=int, required=True)
    hs.add_argument("--format", choices=("text", "latex", "json"), default="text")
    hs.set_defaults(func=cmd_hierarchy_show)
    hv = hsub.add_parser("verify", help="zero-curvature audit")
    hv.add_argument("--max-order", type=int, default=6)
    hv.set_defaults(func=cmd_hierarchy_verify)

    ev = sub.add_parser("evolve", help="integrate a mixed/deformed equation")
    ev.add_argument("--config", help="config file with [flows]/[grid]/[time]")
    ev.add_argument("--preset", help="nls|mkdv|lpd|hirota(a,b)|gnls(...)|hnls4|hnls5")
    ev.add_argument("--initial", required=True, help="field file or sampler name")
    ev.add_argument("--param", action="append", help="sampler parameter key=value")
    ev.add_argument("--grid", help="N,L of a sampler initial; must match a field file's")
    ev.add_argument("--dt", type=float)
    ev.add_argument("--t-end", type=float, dest="t_end")
    ev.add_argument("--method", choices=("auto", "rk4", "ifrk4"),
                    help="auto (the default) and ifrk4 run Lawson IF-RK4 for every schedule; rk4 is the guarded oracle")
    ev.add_argument("--out", help="output directory for snapshots")
    ev.set_defaults(func=cmd_evolve)

    tr = sub.add_parser("transform", help="apply the (a,b) symmetry to a sampler")
    tr.add_argument("--a", type=float, required=True)
    tr.add_argument("--b", type=float, required=True)
    tr.add_argument("--sampler", required=True)
    tr.add_argument("--param", action="append")
    tr.add_argument("--probe", required=True, help="probe grid N,L")
    tr.add_argument("--t", type=float, default=0.0)
    tr.add_argument("--tol", type=float, default=1e-6)
    tr.add_argument("--out", help="field file of the transformed samples at --t")
    tr.set_defaults(func=cmd_transform)

    ve = sub.add_parser("verify", help="verification utilities")
    vsub = ve.add_subparsers(dest="subcommand", required=True)
    vr = vsub.add_parser("residual", help="residual check over snapshots")
    vr.add_argument("--snapshots", required=True)
    vr.add_argument("--config", required=True)
    vr.add_argument("--tol", type=float, default=1e-4)
    vr.set_defaults(func=cmd_verify_residual)

    sa = sub.add_parser("sample", help="sample an analytic/finite-gap solution")
    sa.add_argument(
        "--solution",
        required=True,
        choices=("planewave", "soliton", "peregrine", "finitegap"),
    )
    sa.add_argument("--riemann", help="RiemannData JSON (finitegap)")
    sa.add_argument("--grid", required=True, help="N,L")
    sa.add_argument("--times", nargs="*", help="t_1 t_2 ...")
    sa.add_argument("--param", action="append")
    sa.add_argument("--out", help="field file path")
    sa.set_defaults(func=cmd_sample)

    idp = sub.add_parser("identity", help="finite-gap identity checks")
    isub = idp.add_subparsers(dest="subcommand", required=True)
    ic = isub.add_parser("check", help="argument/phase identities under (a,b)")
    ic.add_argument("--riemann", help="RiemannData JSON; random data if omitted")
    ic.add_argument("--a", type=float, required=True)
    ic.add_argument("--b", type=float, required=True)
    ic.add_argument("--max-flow", type=int, default=5)
    ic.add_argument("--genus", type=int, default=2)
    ic.add_argument("--seed", type=int, default=0)
    ic.add_argument("--tol", type=float, default=1e-10)
    ic.set_defaults(func=cmd_identity_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        args.func(args)
        return OK
    except Exception as exc:
        code = exc.code if isinstance(exc, CliError) else _exit_code(exc)
        if code is None:
            raise
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
