"""Run one benchmark workload in this process and write its result as JSON.

Started by ``run.py``, one process per workload, so that ``ru_maxrss`` is the
workload's own peak.  Set-up time runs from before the first import of numpy
to the end of input construction.  Rounds repeat until their summed operation
time reaches ``--seconds`` (and at least the workload's minimum); checks run
between rounds and are not timed.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced, and the difference of the two
median operation times is reported as the tracing overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _blas_threads():
    """OpenBLAS libraries mapped into this process and their thread counts."""
    import ctypes
    import re
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {m.group(1) for m in map(re.compile(r"(/\S*openblas\S*\.so\S*)").search, fh) if m}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def run_rounds(wl, seconds, min_rounds, first_round, tracer=None):
    walls, failed, failures, summary = [], 0, [], {}
    spent, r = 0.0, first_round
    while spent < seconds or r - first_round < min_rounds:
        if tracer is not None:
            tracer.round = r
        start = time.perf_counter()
        try:
            out = wl.run(r, tracer)
        except Exception:
            traceback.print_exc()
            out = None
            failed += 1
        wall = time.perf_counter() - start
        spent += wall
        walls.append(wall)
        if out is not None:
            failures += [f"round {r}: {msg}" for msg in wl.check(out)]
            summary = wl.summary(out)
            wl.discard(out)
        out = None
        r += 1
    return {"walls": walls, "attempted": r - first_round, "failed": failed,
            "failures": failures, "summary": summary}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="scratch directory for artifacts")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import workloads
    origin = Path(workloads.rbsde.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"rfbsde imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.out))
    result = {"setup_s": time.perf_counter() - t0}

    if not args.setup_only:
        if args.trace:
            import tracing
            half = args.seconds / 2.0
            plain = run_rounds(wl, half, 1, 0)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced = run_rounds(wl, half, 1, plain["attempted"], tracer)
            finally:
                restore()
            layer = tracing.layer_metrics(tracer, max(traced["attempted"], 1))
            if plain["walls"] and traced["walls"]:
                layer["trace.overhead_s"] = (statistics.median(traced["walls"])
                                             - statistics.median(plain["walls"]))
            result["layer"] = layer
            result["trace"] = tracing.trace_dump(tracer)
            parts = (plain, traced)
        else:
            parts = (run_rounds(wl, args.seconds, wl.min_rounds, 0),)
        result["untraced_walls"] = parts[0]["walls"]
        result["traced_walls"] = parts[1]["walls"] if len(parts) > 1 else []
        for key in ("attempted", "failed"):
            result[key] = sum(p[key] for p in parts)
        result["failures"] = [f for p in parts for f in p["failures"]]
        result["summary"] = parts[-1]["summary"]
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["blas_threads"] = _blas_threads()

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
