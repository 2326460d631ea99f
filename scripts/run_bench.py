#!/usr/bin/env python3
"""Benchmark-regression harness for the simulator microbenchmarks.

Runs ``perf_microbench --benchmark_format=json``, writes a dated
``BENCH_<YYYY-MM-DD>.json`` baseline at the repo root, and compares
it against the previous baseline with a configurable tolerance.

Usage:
    # Record today's baseline (and report vs. the previous one):
    python3 scripts/run_bench.py

    # Pre-merge perf gate: nonzero exit if any benchmark's median
    # throughput regressed more than --tolerance plus the runs'
    # noise vs. the latest committed baseline. The run is written
    # to a temp dir, so the baselines under --out-dir are never
    # touched.
    python3 scripts/run_bench.py --check

    # Compare two existing result files without running anything:
    python3 scripts/run_bench.py --compare OLD.json NEW.json

Each benchmark runs REPETITIONS times. Throughput is taken from
``items_per_second`` when the benchmark reports it (all of ours do),
else from 1/real_time, and a run's throughput is the median over its
repetitions. A benchmark regressed when that median fell by more than
the tolerance plus the runs' noise: the larger relative spread
(interquartile range over median) of the two runs' repetitions,
capped at MAX_NOISE. So a noisy host widens the gate instead of
failing it; one outlying repetition moves neither quartile past its
neighbour, and no spread widens the gate by more than the cap, so a
2x slowdown always fails. Improvements are reported but never fail
the gate. Entries are keyed on their full benchmark name.

Recording refuses binaries built without optimization: the benchmark
embeds ``cxlsim_build_type`` in its JSON context and anything other
than Release/RelWithDebInfo aborts unless ``--allow-debug`` is given
(debug numbers poison every later comparison).

``--suite`` additionally times the figure suite end to end through
``melody sweep`` and records the wall-clock numbers as ``run_type:
"suite"`` entries in the same JSON; ``compare()`` ignores those, so
they are a recorded metric, not a gated one. Three runs: serial
cold-cache, parallel cold-cache and parallel warm-cache. All three
must emit byte-identical figure output.
"""

import argparse
import datetime
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BENCH = os.path.join(REPO_ROOT, "build", "bench",
                             "perf_microbench")
DEFAULT_MELODY = os.path.join(REPO_ROOT, "build", "tools", "melody")

#: Build types whose numbers are comparable across runs.
OPTIMIZED_BUILD_TYPES = ("release", "relwithdebinfo")

#: Runs of each benchmark; the verdict compares their medians.
REPETITIONS = 5

#: The most the runs' noise may add to the tolerance.
MAX_NOISE = 0.15


def throughput(entry):
    """Items/sec for one google-benchmark JSON entry."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"])
    rt = float(entry["real_time"])
    return 1e9 / rt if rt > 0 else 0.0


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_results(path):
    """name -> throughputs of its repetitions, in one result file."""
    out = {}
    for b in load_json(path).get("benchmarks", []):
        if b.get("run_type", "iteration") == "iteration":
            out.setdefault(b["name"], []).append(throughput(b))
    return out


def spread(xs):
    """Interquartile range / median of one run's repetitions; 0 for
    a single run. With 5 repetitions the quartiles are the 2nd and
    4th values, so the extremes never count."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = quantiles(xs, n=4, method="inclusive")
    m = median(xs)
    return (q3 - q1) / m if m > 0 else 0.0


def run_bench(bench, min_time, extra_args):
    cmd = [bench, "--benchmark_format=json",
           f"--benchmark_repetitions={REPETITIONS}"]
    if min_time is not None:
        cmd.append(f"--benchmark_min_time={min_time}")
    cmd += extra_args
    print(f"running: {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def check_build_type(data, allow_debug):
    """Refuse to record numbers from an unoptimized build."""
    ctx = data.get("context", {})
    build = str(ctx.get("cxlsim_build_type",
                        ctx.get("library_build_type",
                                "unknown"))).lower()
    if build in OPTIMIZED_BUILD_TYPES:
        return True
    if allow_debug:
        print(f"WARNING: recording from a '{build}' build "
              "(--allow-debug); numbers are NOT comparable to "
              "Release baselines.", file=sys.stderr)
        return True
    print(f"refusing to record from a '{build}' build: configure "
          "with -DCMAKE_BUILD_TYPE=Release (or pass --allow-debug "
          "to override).", file=sys.stderr)
    return False


def run_suite(melody, jobs, cache_dir, figures):
    """One timed `melody sweep` run; returns (seconds, stdout)."""
    env = dict(os.environ)
    env["MELODY_SWEEP_CACHE_DIR"] = cache_dir
    env.pop("MELODY_SWEEP_JOBS", None)
    env.pop("MELODY_SWEEP_CACHE", None)
    cmd = [melody, "sweep", "--jobs", str(jobs)] + figures
    print(f"running: {' '.join(cmd)}", file=sys.stderr)
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=env,
                          check=True)
    return time.monotonic() - start, proc.stdout


def suite_entries(melody, jobs, figures):
    """Time the figure suite three ways; return JSON entries.

    serial_cold and jobs{N}_cold render from empty caches;
    jobs{N}_warm replays the cache jobs{N}_cold filled. All runs
    must emit byte-identical figure output — the engine's core
    guarantee — so any drift fails loudly here too.
    """
    tmp = tempfile.mkdtemp(prefix="melody-suite-")
    try:
        serial_s, serial_out = run_suite(
            melody, 1, os.path.join(tmp, "serial"), figures)
        cold_s, cold_out = run_suite(
            melody, jobs, os.path.join(tmp, "par"), figures)
        warm_s, warm_out = run_suite(
            melody, jobs, os.path.join(tmp, "par"), figures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if cold_out != serial_out or warm_out != serial_out:
        print("suite output mismatch between serial/cold/warm "
              "runs — determinism bug, not recording.",
              file=sys.stderr)
        raise SystemExit(1)

    def entry(name, seconds, run_jobs):
        return {
            "name": name,
            "run_type": "suite",
            "figures": " ".join(figures),
            "jobs": run_jobs,
            "real_time": seconds * 1e9,
            "time_unit": "ns",
            "wall_seconds": round(seconds, 3),
        }

    entries = [
        entry("suite/serial_cold", serial_s, 1),
        entry(f"suite/jobs{jobs}_cold", cold_s, jobs),
        entry(f"suite/jobs{jobs}_warm", warm_s, jobs),
    ]
    par = serial_s / cold_s if cold_s > 0 else float("inf")
    print(f"suite wall-clock: serial cold {serial_s:.1f}s, "
          f"jobs={jobs} cold {cold_s:.1f}s, warm {warm_s:.1f}s "
          f"({par:.1f}x vs serial cold)", file=sys.stderr)
    return entries


def previous_baseline(out_dir, exclude):
    paths = sorted(glob.glob(os.path.join(out_dir, "BENCH_*.json")))
    paths = [p for p in paths if os.path.abspath(p) != exclude]
    return paths[-1] if paths else None


def compare(old_path, new_path, tolerance):
    """Print a comparison table; return list of regressed names."""
    old = load_results(old_path)
    new = load_results(new_path)
    regressions = []
    print(f"baseline: {old_path}")
    print(f"current:  {new_path}")
    print(f"tolerance: {tolerance:.0%} + noise\n")
    print(f"{'benchmark':<38} {'old it/s':>14} {'new it/s':>14} "
          f"{'ratio':>7} {'noise':>6}  verdict")
    for name, cur in new.items():
        if name not in old:
            print(f"{name:<38} {'-':>14} {median(cur):>14.3e} "
                  f"{'-':>7} {'-':>6}  new")
            continue
        base = median(old[name])
        ratio = median(cur) / base if base > 0 else float("inf")
        noise = min(max(spread(old[name]), spread(cur)), MAX_NOISE)
        if ratio < 1.0 - tolerance - noise:
            verdict = "REGRESSED"
            regressions.append(name)
        elif ratio > 1.0 + tolerance + noise:
            verdict = "improved"
        else:
            verdict = "ok"
        print(f"{name:<38} {base:>14.3e} {median(cur):>14.3e} "
              f"{ratio:>6.2f}x {noise:>6.0%}  {verdict}")
    for name in old:
        if name not in new:
            print(f"{name:<38} missing from current run: REGRESSED")
            regressions.append(name)
    return regressions


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default=DEFAULT_BENCH,
                    help="perf_microbench binary "
                         f"(default: {DEFAULT_BENCH})")
    ap.add_argument("--out-dir", default=REPO_ROOT,
                    help="baseline directory: recording writes "
                         "BENCH_<date>.json here, --check compares "
                         "against the newest one here")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional slowdown of the median "
                         "beyond the runs' noise (default 0.15)")
    ap.add_argument("--check", action="store_true",
                    help="exit nonzero if any benchmark regressed "
                         "vs. the latest baseline")
    ap.add_argument("--baseline",
                    help="explicit baseline JSON to compare "
                         "against (default: latest BENCH_*.json)")
    ap.add_argument("--compare", nargs=2,
                    metavar=("OLD", "NEW"),
                    help="compare two existing JSON files; "
                         "runs nothing")
    ap.add_argument("--min-time", default=None,
                    help="forwarded as --benchmark_min_time")
    ap.add_argument("--allow-debug", action="store_true",
                    help="record even from a non-Release build "
                         "(numbers will not be comparable)")
    ap.add_argument("--suite", action="store_true",
                    help="also time the figure suite via "
                         "'melody sweep' (serial cold, parallel "
                         "cold, parallel warm) and record "
                         "run_type='suite' entries")
    ap.add_argument("--melody", default=DEFAULT_MELODY,
                    help="melody binary for --suite "
                         f"(default: {DEFAULT_MELODY})")
    ap.add_argument("--suite-jobs", type=int, default=4,
                    help="worker count for the parallel suite "
                         "runs (default 4)")
    ap.add_argument("--suite-figures", default="all",
                    help="space-separated figure list for --suite "
                         "(default: all)")
    ap.add_argument("bench_args", nargs="*",
                    help="extra args forwarded to the benchmark")
    args = ap.parse_args()

    if args.compare:
        for p in args.compare:
            if not os.path.exists(p):
                print(f"no such file: {p}", file=sys.stderr)
                return 2
        regressions = compare(args.compare[0], args.compare[1],
                              args.tolerance)
        if regressions:
            print(f"\n{len(regressions)} regression(s): "
                  f"{', '.join(regressions)}")
            return 1
        print("\nno regressions")
        return 0

    if not os.path.exists(args.bench):
        print(f"benchmark binary not found: {args.bench}\n"
              "build it first: cmake --build build "
              "--target perf_microbench", file=sys.stderr)
        return 2

    data = run_bench(args.bench, args.min_time, args.bench_args)
    if not check_build_type(data, args.allow_debug):
        return 2
    if args.suite:
        if not os.path.exists(args.melody):
            print(f"melody binary not found: {args.melody}\n"
                  "build it first: cmake --build build "
                  "--target melody", file=sys.stderr)
            return 2
        data.setdefault("benchmarks", []).extend(
            suite_entries(args.melody, args.suite_jobs,
                          args.suite_figures.split()))
    # A check compares against the newest baseline, today's
    # included, and must not overwrite it: its run goes to a temp
    # dir that is removed afterwards. Recording writes into
    # --out-dir.
    if args.check:
        with tempfile.TemporaryDirectory(
                prefix="melody-bench-check-") as tmp:
            return write_and_compare(data, tmp, args)
    return write_and_compare(data, args.out_dir, args)


def write_and_compare(data, write_dir, args):
    """Write BENCH_<today>.json into write_dir; gate vs baseline."""
    date = datetime.date.today().isoformat()
    out_path = os.path.abspath(
        os.path.join(write_dir, f"BENCH_{date}.json"))
    with open(out_path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}", file=sys.stderr)

    baseline = args.baseline or previous_baseline(
        args.out_dir, exclude=out_path)
    if baseline is None:
        print("no previous baseline found; "
              + ("nothing to check against." if args.check
                 else "recorded only."))
        return 0

    regressions = compare(baseline, out_path, args.tolerance)
    if regressions:
        print(f"\n{len(regressions)} regression(s): "
              f"{', '.join(regressions)}")
        return 1 if args.check else 0
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
