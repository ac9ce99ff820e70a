"""One fresh benchmark process: set up a workload, then (role ``solve``)
repeat its fixed work for the given seconds.  Prints one JSON line.

Started by run.py, one process at a time; run it directly only to debug:

    python3 perfbench/worker.py --workload cli_hnls5 --seed 1 --seconds 5 --trace 0 --role solve
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from refkernel import NOMINAL_MS, RefKernel
from workloads import WORKLOADS, Session

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TRACE_REPS = 2  # traced repetitions; fixed, so call counts repeat exactly


def import_rakns():
    sys.path.insert(0, str(ROOT / "src"))
    import rakns

    if Path(rakns.__file__).resolve().parent != ROOT / "src" / "rakns":
        raise RuntimeError(f"imported rakns from {rakns.__file__}, not from this checkout")
    return rakns


def per_layer(tracer, traced_ms, session, workload, traced, untraced, raw) -> dict:
    """BENCHMARK.json's per-layer metrics.  Span times are normalised by
    the kernel samples of the traced phase only (``traced_ms``): the host
    can change speed regime between that phase and the untraced one."""
    wanted = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    out = tracer.summary(NOMINAL_MS / statistics.median(traced_ms), wanted)
    out["diffpoly.terms"] = workload.terms
    out["err_max"] = workload.err_max
    out["drift_max"] = workload.drift_max
    out["resid_max"] = workload.resid_max
    out["fail_frac"] = session.failed / session.attempted
    out["host.ref_kernel_ms"] = statistics.median(traced_ms)
    out["host.raw_solve_s"] = statistics.median(raw)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return out


def run(args) -> dict:
    kernel = RefKernel()
    kernel.sample()  # first call pays numpy's FFT set-up
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        before = kernel.sample()
        t0 = time.perf_counter()
        rakns = import_rakns()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        workload = WORKLOADS[args.workload](rakns, args.seed, workdir, ROOT)
        setup_raw = time.perf_counter() - t0
        setup_s = setup_raw * RefKernel.factor(before, kernel.sample())
        if args.role == "setup":
            return {"setup_s": setup_s, "setup_raw_s": setup_raw}

        session = Session(kernel)
        deadline = time.perf_counter() + args.seconds
        traced, traced_ms = [], []
        if tracer is not None:
            traced = [session.rep(workload)[1] for _ in range(TRACE_REPS)]
            tracer.uninstall()
            # samples from the one just before set-up to the end of the traced reps
            traced_ms = kernel.samples_ms[1:]
        raw, norm = [], []
        while not norm or time.perf_counter() < deadline:
            r, n = session.rep(workload)
            raw.append(r)
            norm.append(n)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s,
            "solve_s": statistics.median(norm),
            "reps": len(norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": session.attempted,
            "failed": session.failed,
            "correct": session.correct,
            "failures": dict(session.failures),
            "err_max": workload.err_max,
            "drift_max": workload.drift_max,
            "resid_max": workload.resid_max,
            "kernel_ms": kernel.median_ms(),
            "raw_solve_s": statistics.median(raw),
        }
        if tracer is not None:
            result["per_layer"] = per_layer(tracer, traced_ms, session, workload, traced, norm, raw)
            tracer.dump(
                OUT / f"trace-{args.workload}.json",
                {"workload": args.workload, "seed": args.seed, "traced_reps": TRACE_REPS},
            )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("setup", "solve"), required=True)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except Exception as exc:  # report in one line; run.py turns it into a failed run
        print(f"worker error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
