#!/usr/bin/env python3
"""Melody-Sim benchmark runner.

Builds perfbench/ (the simulator libraries plus melody_perfbench)
from source, then runs cold instances of one workload, each in a
fresh process with an empty run cache and cost DB, until --seconds
have passed. Prints a human-readable table, then as its last line one
JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over instances);
--trace 1 alternates untraced and traced instances and reports the
per-layer metrics (medians over traced instances) and the tracing
overhead. See perfbench/README.md.

    python3 perfbench/run.py --workload chase-rw --seed 1 --seconds 35
    python3 perfbench/run.py --selftest
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Cold instances per run, whatever --seconds says: medians need a few.
MIN_INSTANCES = 3
MIN_TRACED_PAIRS = 2
INSTANCE_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then (re)build melody_perfbench. Returns the
    binary path, or None when the build fails."""
    bdir = build_dir()
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "melody_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "melody_perfbench")


def child_env():
    # Sweep/simulation knobs come from the command line only.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("MELODY_")}


def run_instance(binary, workload, seed, jobs, trace_path):
    """One cold instance in a fresh process and a fresh cache dir.
    Returns its JSON record, or a record with "error" set."""
    tmp_root = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--jobs", str(jobs), "--cache-dir", os.path.join(tmp, "cache")]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=INSTANCE_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if r.returncode != 0:
        return {"error": "exit %d: %s" % (r.returncode, r.stderr[-500:])}
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "unparsable output"}


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def judge(records, workload, seed):
    """Output checks over every instance. Returns (attempted, failed,
    problems); a failed check fails every point of its instance."""
    want = expected_digest(workload, seed)
    digests = {r["digest"] for r in records if "digest" in r}
    points = max([r.get("points", 0) for r in records] + [1])
    attempted = failed = 0
    problems = []
    for r in records:
        attempted += r.get("points", points)
        bad = []
        if "error" in r:
            bad.append(r["error"])
        else:
            bad += r["check_errors"]
            if r.get("trace_error"):
                bad.append("trace: " + r["trace_error"])
            if want and r["digest"] != want:
                bad.append("digest %s, stored %s" % (r["digest"], want))
            if len(digests) > 1:
                bad.append("instances disagree on the output digest")
        if bad:
            failed += r.get("points", points)
            problems += bad
        else:
            failed += r["failed_points"]
            if r["failed_points"]:
                problems.append("%d point(s) threw" % r["failed_points"])
    return attempted, failed, problems


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(records):
    return {
        "wall_s": median_of(records, "wall_s"),
        "cpu_s": median_of(records, "cpu_s"),
        "sim_mreq_per_s": statistics.median(
            r["requests"] / r["wall_s"] / 1e6 for r in records),
        "peak_rss_mb": median_of(records, "peak_rss_mb"),
        "setup_s": median_of(records, "setup_s"),
    }


def per_layer(untraced, traced):
    out = {}
    for name in traced[0]["layers"]:
        out[name] = statistics.median(r["layers"][name] for r in traced)
    out["trace.overhead_s"] = (median_of(traced, "wall_s") -
                               median_of(untraced, "wall_s"))
    out["trace.clamped_s"] = median_of(traced, "trace_clamped_s")
    return out


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(section):
    """(name, unit) of each metric BENCHMARK.json declares."""
    return [(m["name"], m["unit"]) for m in benchmark_json()[section]]


def trace_file(args):
    return os.path.join(build_dir(), "traces",
                        "%s-seed%d.json" % (args.workload, args.seed))


def measure(binary, args):
    jobs = min(len(os.sched_getaffinity(0)), 4)
    trace_path = trace_file(args)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    untraced, traced = [], []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t0
        if args.trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_PAIRS
        else:
            enough = len(untraced) >= MIN_INSTANCES
        if enough and elapsed + longest > args.seconds:
            break
        want_traced = args.trace and len(traced) < len(untraced)
        s = time.monotonic()
        r = run_instance(binary, args.workload, args.seed, jobs,
                         trace_path if want_traced else None)
        longest = max(longest, time.monotonic() - s)
        (traced if want_traced else untraced).append(r)
        if "error" in r:
            break
    return jobs, untraced, traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[
        w["name"] for w in benchmark_json()["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=benchmark_json()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return subprocess.run([binary, "selftest"], env=child_env(),
                              timeout=600).returncode

    jobs, untraced, traced = measure(binary, args)
    records = untraced + traced
    attempted, failed, problems = judge(records, args.workload, args.seed)
    ok = [r for r in untraced if "error" not in r]
    ok_traced = [r for r in traced if "error" not in r]
    if not ok or (args.trace and not ok_traced):
        log("no instance completed: " + "; ".join(problems[:5]))
        return 1

    print("workload %s  seed %d  jobs %d  instances %d untraced, "
          "%d traced" % (args.workload, args.seed, jobs, len(untraced),
                         len(traced)))
    want = expected_digest(args.workload, args.seed)
    got = ok[0]["digest"]
    print("digest %s (%s)" % (
        got, "no stored digest for this seed" if not want else
        "matches stored" if got == want else "stored: " + want))
    for p in problems[:10]:
        print("CHECK FAILED: " + p)
    e2e = end_to_end(ok)
    e2e["fail_frac"] = failed / attempted
    for name, unit in declared("end_to_end") + [("fail_frac", "ratio")]:
        print("  %-16s %14.6f %s" % (name, e2e[name], unit))
    if args.trace:
        values = per_layer(ok, ok_traced)
        units = declared("per_layer")
        print("spans: " + os.path.relpath(trace_file(args), ROOT))
        print("backend estimate cut by the cap: %.6f s (trace.clamped_s)"
              % values["trace.clamped_s"])
    else:
        values = e2e
        units = declared("end_to_end")
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        if args.trace:
            print("  %-28s %16.6f %s" % (name, values[name], unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
