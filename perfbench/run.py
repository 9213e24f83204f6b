"""Benchmark command for rfbsde.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src/``; nothing is installed.  Each workload runs in a worker process of
its own, so peak RSS is the workload's.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics of
``BENCHMARK.json``; set-up time is the median over the worker and
``SETUP_PROBES`` extra processes that only set up.  With ``--trace 1`` it
carries the per-layer metrics instead.  Workers run with one BLAS thread
(``WORKER_ENV``).  Scratch output goes under ``.perfbench-out/`` in the
checkout.  Exits non-zero, printing no result, when the package sources are
missing or a worker fails or overruns.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cost-mc", "solve-classical", "certify-viscosity")
SETUP_PROBES = 4
# One BLAS thread: the operations do their work in a single thread anyway, and a
# second one only adds a way for the other core's load to reach the timings.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker(args, out, tag, extra, deadline):
    result = out / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), "--result", str(result),
           *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              env={**os.environ, **WORKER_ENV}, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} overran the {TIME_LIMIT_S:.0f}s limit") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"worker {tag} exited {proc.returncode}")
    return json.loads(result.read_text())


def measure(args):
    """Run the workload; returns the result object printed as the last line."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "rfbsde" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ROOT / ".perfbench-out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}")
    out.mkdir(parents=True, exist_ok=True)

    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            setups.append(_worker(args, out, f"setup{k}", ["--setup-only"], deadline)["setup_s"])
    res = _worker(args, out, "main", [], deadline)
    setups.append(res["setup_s"])
    print(f"blas threads observed: {res['blas_threads']}", file=sys.stderr)
    for msg in res["failures"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if args.trace:
        values = res["layer"]
        wanted = spec["per_layer"]
        (out / "trace.json").write_text(json.dumps(res.pop("trace")))
    else:
        values = {"setup_s": statistics.median(setups),
                  "op_wall_s": statistics.median(res["untraced_walls"]),
                  "peak_rss_mib": res["peak_rss_mib"]}
        wanted = spec["end_to_end"]
    (out / "result.json").write_text(json.dumps({**res, "setup_samples": setups}))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="rfbsde benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
