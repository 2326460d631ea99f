#!/usr/bin/env python3
"""scripts/run_bench.py --check: baselines and the noise-aware verdict.

A fake benchmark binary reports fixed throughputs, one per
repetition. The baseline directory holds an old baseline and one
dated today:

  - ``--check`` compares against today's baseline (the newest), so
    the slower fake run is a regression (exit 1), and the directory
    is left byte-for-byte as it was;
  - recording mode (no ``--check``) still writes BENCH_<today>.json
    into the directory and reports against the older baseline.

Then the verdict on repetitions, the benchmark asked for 5 of them:

  - an unchanged but noisy pair passes, though its medians differ by
    more than the tolerance;
  - a real 2x slowdown with little noise fails;
  - so does a 2x slowdown with one outlying repetition, which must
    not widen the gate;
  - and one whose runs are both widely spread, since the noise only
    widens the gate up to a cap.

Usage: run_bench_check_test.py  (exit 0 on pass)
"""

import datetime
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_BENCH = os.path.join(os.path.dirname(HERE), "scripts",
                         "run_bench.py")

FAKE_BENCH = """#!{python}
import sys
with open({argv_log!r}, "a") as f:
    f.write(" ".join(sys.argv[1:]) + "\\n")
print({doc!r})
"""


def baseline(*items_per_second):
    """A result document with one entry per repetition, plus the
    aggregate google-benchmark adds (which the verdict ignores)."""
    reps = [{"name": "BM_Fake", "run_type": "iteration",
             "items_per_second": ips} for ips in items_per_second]
    agg = {"name": "BM_Fake_median", "run_type": "aggregate",
           "items_per_second": 1.0}
    return {"context": {"cxlsim_build_type": "Release"},
            "benchmarks": reps + [agg]}


def fake_bench(d, *items_per_second):
    """Write a fake benchmark reporting @p items_per_second into d."""
    path = os.path.join(d, "fake_bench")
    with open(path, "w") as f:
        f.write(FAKE_BENCH.format(
            python=sys.executable,
            argv_log=os.path.join(d, "argv.log"),
            doc=json.dumps(baseline(*items_per_second))))
    os.chmod(path, 0o755)
    return path


def snapshot(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


def run(args):
    return subprocess.run([sys.executable, RUN_BENCH] + args,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def main():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        bench = fake_bench(tmp, 500.0)
        base_dir = os.path.join(tmp, "baselines")
        os.mkdir(base_dir)
        today = datetime.date.today().isoformat()
        old_name = "BENCH_2000-01-01.json"
        new_name = f"BENCH_{today}.json"
        for name, ips in ((old_name, 100.0), (new_name, 1000.0)):
            with open(os.path.join(base_dir, name), "w") as f:
                json.dump(baseline(ips), f)

        before = snapshot(base_dir)
        check = run(["--check", "--bench", bench,
                     "--out-dir", base_dir])
        expect(check.returncode == 1,
               f"--check exit {check.returncode}, want 1 "
               f"(500 it/s vs today's 1000)\n{check.stdout}")
        expect(f"baseline: {os.path.join(base_dir, new_name)}"
               in check.stdout,
               f"--check did not compare against today's "
               f"baseline\n{check.stdout}")
        expect(snapshot(base_dir) == before,
               "--check changed the baseline directory")

        record = run(["--bench", bench, "--out-dir", base_dir])
        expect(record.returncode == 0,
               f"recording exit {record.returncode}\n"
               f"{record.stdout}{record.stderr}")
        expect(f"baseline: {os.path.join(base_dir, old_name)}"
               in record.stdout,
               f"recording did not compare against the older "
               f"baseline\n{record.stdout}")
        with open(os.path.join(base_dir, new_name)) as f:
            written = json.load(f)
        expect(written["benchmarks"][0]["items_per_second"] == 500.0,
               "recording did not write today's baseline")

    # (baseline repetitions, current repetitions, want exit code)
    verdicts = {
        # Medians 1000 -> 800 (0.80x, past the 15% tolerance), but
        # the runs' interquartile ranges are 30% and 35% of their
        # medians.
        "noisy-unchanged": ((1000.0, 1400.0, 700.0, 1300.0, 1000.0),
                            (720.0, 1300.0, 600.0, 800.0, 1000.0),
                            0),
        "real-2x-slowdown": ((1000.0, 1050.0, 980.0, 1020.0, 1000.0),
                             (500.0, 520.0, 490.0, 510.0, 505.0),
                             1),
        # One repetition ran at 2.7x the others' speed: (max - min)
        # over median would be 178%.
        "outlier-hides-2x": ((1000.0, 1050.0, 980.0, 1020.0, 1000.0),
                             (500.0, 520.0, 490.0, 510.0, 1400.0),
                             1),
        # Both runs spread over 60% of their medians.
        "noisy-2x-slowdown": ((600.0, 800.0, 1000.0, 1400.0, 1600.0),
                              (300.0, 400.0, 500.0, 700.0, 800.0),
                              1),
    }
    for case, (old_reps, new_reps, want) in verdicts.items():
        with tempfile.TemporaryDirectory() as tmp:
            bench = fake_bench(tmp, *new_reps)
            with open(os.path.join(tmp, "BENCH_2000-01-01.json"),
                      "w") as f:
                json.dump(baseline(*old_reps), f)
            check = run(["--check", "--bench", bench,
                         "--out-dir", tmp])
            expect(check.returncode == want,
                   f"{case}: --check exit {check.returncode}, want "
                   f"{want}\n{check.stdout}{check.stderr}")
            with open(os.path.join(tmp, "argv.log")) as f:
                argv = f.read()
            expect("--benchmark_repetitions=5" in argv,
                   f"{case}: benchmark ran without repetitions: "
                   f"{argv}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
