"""Command-line surface: inspect hierarchy flows, run evolutions, apply
symmetry transforms, verify residuals and identities, sample solutions.

Exit codes: 0 ok, 1 verification failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import re
import sys

from . import hierarchy
from .diffpoly import render

# Each command imports the layers it uses when it runs, so that the exact
# layer's commands load neither numpy nor the numerical modules.

OK, VERIFY_FAILED, USAGE = 0, 1, 2


class CliError(Exception):
    def __init__(self, message, code=USAGE):
        super().__init__(message)
        self.code = code


def _parse_sampler(text: str, params: dict):
    """Sampler literal: planewave, soliton, peregrine, finitegap."""
    from .solutions import RiemannData, finite_gap_sampler, peregrine, plane_wave, soliton

    name = text.lower()
    if name in ("planewave", "plane_wave"):
        return plane_wave(float(params.get("q", 1.0)), int(params.get("order", 5)))
    if name == "soliton":
        return soliton(float(params.get("a", 1.0)), int(params.get("order", 5)))
    if name == "peregrine":
        return peregrine()
    if name == "finitegap":
        path = params.get("riemann")
        if not path:
            raise CliError("finitegap sampler needs a riemann data file")
        with open(path) as fh:
            return finite_gap_sampler(RiemannData.from_json(fh.read()))
    raise CliError(f"unknown sampler {text!r}")


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


def _parse_grid(text: str) -> Grid:
    from .spectral import Grid

    m = re.fullmatch(r"(\d+),([0-9.eE+-]+)", text.strip())
    if not m:
        raise CliError(f"grid must be 'N,L', got {text!r}")
    return Grid(int(m.group(1)), float(m.group(2)))


# -- subcommands -------------------------------------------------------------


def cmd_hierarchy_show(args) -> int:
    table = hierarchy.build_flows(args.order)
    h = hierarchy.scalar_H(table, args.order)
    print(render(h, args.format))
    return OK


def cmd_hierarchy_verify(args) -> int:
    table = hierarchy.build_flows(args.max_order)
    ok = True
    for report in hierarchy._curvature_reports(table, args.max_order):
        print(f"flow {report.flow_order}: {'pass' if report.passed else 'FAIL'}")
        ok = ok and report.passed
    return OK if ok else VERIFY_FAILED


def cmd_evolve(args) -> int:
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
    try:
        traj = evolve_run(f0, spec, t_end, dt, method=method, snapshot_stride=stride)
    except Blowup as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        if exc.last_good is not None and args.out:
            os.makedirs(args.out, exist_ok=True)
            write_field(exc.last_good, os.path.join(args.out, "last_good.txt"))
        return VERIFY_FAILED
    if args.out:
        traj.write(args.out)
        print(f"wrote {len(traj.fields)} snapshots to {args.out}")
    else:
        print(f"final time {traj.final.time:.6g}, max|psi| = {np.max(np.abs(traj.final.values)):.6g}")
    return OK


def cmd_transform(args) -> int:
    from .evolve import FlowSpec, Linear
    from .spectral import residual, sample_onto_grid
    from .symmetry import SymmetryParams, transform_solution

    _check_tol(args.tol)
    sampler = _parse_sampler(args.sampler, _parse_params(args.param))
    p = SymmetryParams(args.a, args.b)
    transformed = transform_solution(sampler, p)
    grid = _parse_grid(args.probe)
    rows = []
    worst = 0.0
    delta = 1e-5
    for k in range(1, min(transformed.max_order, 5) + 1):
        spec = FlowSpec([(k, Linear(1.0))])
        fields = []
        for s in (-delta, 0.0, delta):
            times = [0.0] * transformed.max_order
            times[k - 1] = args.t + s
            fields.append(sample_onto_grid(transformed, grid, tuple(times), t=args.t + s))
        r = residual(*fields, spec)
        worst = max(worst, r)
        rows.append((k, r))
    f0 = sample_onto_grid(
        transformed,
        grid,
        tuple([args.t] + [0.0] * (transformed.max_order - 1)),
        t=args.t,
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "t", "re", "im"])
            x = grid.nodes - grid.length / 2
            for xx, v in zip(x, f0.values):
                w.writerow([f"{xx:.17g}", f"{args.t:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])
    for k, r in rows:
        print(f"flow {k}: residual {r:.3e}")
    print(f"worst residual {worst:.3e}")
    return OK if worst < args.tol else VERIFY_FAILED


def cmd_verify_residual(args) -> int:
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
    worst = 0.0
    checked = 0
    for fm, f0, fp in zip(fields, fields[1:], fields[2:]):
        dm, dp = f0.time - fm.time, fp.time - f0.time
        if not (dm > 0 and abs(dm - dp) <= 1e-12 * max(dm, dp)):
            continue  # trailing snapshot may break the uniform cadence
        r = residual(fm, f0, fp, spec)
        print(f"t={f0.time:.6g}: residual {r:.3e}")
        worst = max(worst, r)
        checked += 1
    if not checked:
        raise CliError("no equally spaced snapshot triples found", VERIFY_FAILED)
    print(f"worst residual {worst:.3e}")
    return OK if worst < args.tol else VERIFY_FAILED


def cmd_sample(args) -> int:
    from .spectral import sample_onto_grid, write_field

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
        for i, v in enumerate(f.values):
            print(f"{i} {v.real:.17g} {v.imag:.17g}")
    return OK


def cmd_identity_check(args) -> int:
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
    ok = all(e < args.tol for e in errors.values())  # NaN fails
    print("pass" if ok else "FAIL")
    return OK if ok else VERIFY_FAILED


# Errors that a command reports in one line: (home module, class, exit code),
# the first match deciding; StabilityViolation is an EvolveError.
_ERRORS = (
    ("spectral", "FieldFormatError", USAGE),
    ("spectral", "SpectralError", VERIFY_FAILED),
    ("evolve", "StabilityViolation", VERIFY_FAILED),
    ("config", "ConfigError", USAGE),
    ("solutions", "SolutionError", USAGE),
    ("evolve", "EvolveError", USAGE),
)


def _exit_code(exc: Exception) -> int | None:
    """The exit code of an error in ``_ERRORS`` or a bad-input builtin, None
    for any other.  A class is looked up only in a module already loaded,
    because one that the run never imported cannot have raised it."""
    for module, name, code in _ERRORS:
        home = sys.modules.get(f"{__package__}.{module}")
        if home is not None and isinstance(exc, getattr(home, name)):
            return code
    return USAGE if isinstance(exc, (FileNotFoundError, ValueError)) else None


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
    ev.add_argument("--method", choices=("auto", "rk4", "ifrk4"))
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
    tr.add_argument("--out", help="CSV of transformed samples")
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
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
