#!/usr/bin/env python3
"""Steadiness check for the Melody-Sim benchmark.

Runs two sets of benchmark runs of the same checkout, one run per
seed 1-10 per workload in each set, and prints for every end-to-end
metric its median and quartiles per set, the spread between
quartiles as a share of the median, and whether the sets agree
within the metric's bound from BENCHMARK.json:

  - spread: (Q3 - Q1) / median of one set must stay within the bound,
    and should stay below a third of it;
  - drift: the second set's median may be worse than the first's by
    at most the bound.

    python3 perfbench/steadiness.py

Exits 1 if any check fails. Raw results go to
.bench_build/perfbench/steadiness.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d" % (workload, seed))
    return json.loads(r.stdout.strip().splitlines()[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def worse_by(metric, base, now):
    """How much worse `now` is than `base`, as a share of `base`."""
    if metric["better"] == "lower":
        return (now - base) / base
    return (base - now) / base


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    results = {}  # (set, workload) -> list of run results
    for k in range(SETS):
        for w in workloads:
            runs = []
            for seed in SEEDS:
                res = run_once(w, seed, bench["run_seconds"])
                if not res["correct"]:
                    print("set %d %s seed %d: outputs incorrect"
                          % (k + 1, w, seed))
                runs.append(res)
                print("set %d %-15s seed %3d  %s  fail_frac=%.6g" % (
                    k + 1, w, seed, "  ".join(
                        "%s=%.6g" % (n, m["value"])
                        for n, m in res["metrics"].items()),
                    res["failed"] / res["attempted"]), flush=True)
            results[(k, w)] = runs

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w") as f:
        json.dump({"%d/%s" % key: v for key, v in results.items()}, f)

    ok = True
    print("\n%-15s %-15s %4s %12s %12s %12s %7s %7s %6s" % (
        "workload", "metric", "set", "Q1", "median", "Q3", "spread",
        "drift", "bound"))
    for w in workloads:
        for m in bench["end_to_end"]:
            first = None
            for k in range(SETS):
                runs = results[(k, w)]
                if not all(r["correct"] for r in runs):
                    ok = False
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                drift = 0.0 if first is None else worse_by(m, first, med)
                first = med if first is None else first
                failed, flags = [], []
                if spread > m["bound"]:
                    failed.append("SPREAD>BOUND")
                elif spread > m["bound"] / 3:
                    flags.append("spread>bound/3")
                if drift > m["bound"]:
                    failed.append("DRIFT>BOUND")
                ok = ok and not failed
                flags = failed + flags
                print("%-15s %-15s %4d %12.6g %12.6g %12.6g %7.3f %7.3f "
                      "%6.2f %s" % (w, m["name"], k + 1, q1, med, q3,
                                    spread, drift, m["bound"],
                                    " ".join(flags)))
    print("\n%s" % ("STEADY: every set agrees within its bounds" if ok
                    else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
