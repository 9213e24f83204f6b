"""Steadiness mode: run each workload k times and compare spreads with bounds.

    python3 perfbench/steady.py --runs 10 [--seed0 100]

Runs every workload of ``BENCHMARK.json`` ``--runs`` times for its
``run_seconds``; run ``i`` of a workload uses seed ``seed0 + i``.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
against the metric's bound, plus the failed share of operations.  The full
table is also written to ``.perfbench-out/steady-<time>.json``.  Exits 1 when
a spread exceeds a third of its bound (for ``setup_s``, whose set-up samples
are few per run, the bound itself), or when any run is incorrect or fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    report, ok = {}, True
    for w in names:
        runs = []
        for i in range(args.runs):
            start = time.monotonic()
            r = one_run(w, args.seed0 + i, spec["run_seconds"])
            runs.append(r)
            print(f"{w} seed {args.seed0 + i} ({time.monotonic() - start:.1f}s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                + f" attempted={r['attempted']} failed={r['failed']} correct={r['correct']}",
                flush=True)
        rows = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs],
                                     m["bound"]) for m in spec["end_to_end"]}
        failed_share = sorted({r["failed"] / r["attempted"] for r in runs})
        report[w] = {"metrics": rows, "failed_shares": failed_share,
                     "all_correct": all(r["correct"] for r in runs)}
        ok &= report[w]["all_correct"] and len(failed_share) == 1
        for name, row in rows.items():
            limit = row["bound"] if name == "setup_s" else row["bound"] / 3.0
            steady = row["spread"] <= limit
            ok &= steady
            print(f"  {name:<14} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.4f}  "
                  f"bound {row['bound']}  {'ok' if steady else 'WIDE'}", flush=True)
        print(f"  failed share(s) {failed_share}, all correct {report[w]['all_correct']}",
              flush=True)

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(report, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
