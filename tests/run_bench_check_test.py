#!/usr/bin/env python3
"""scripts/run_bench.py --check must never touch the baselines.

A fake benchmark binary reports a fixed throughput. The baseline
directory holds an old baseline and one dated today:

  - ``--check`` compares against today's baseline (the newest), so
    the slower fake run is a regression (exit 1), and the directory
    is left byte-for-byte as it was;
  - recording mode (no ``--check``) still writes BENCH_<today>.json
    into the directory and reports against the older baseline.

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
import json
print(json.dumps({{
    "context": {{"cxlsim_build_type": "Release"}},
    "benchmarks": [{{"name": "BM_Fake", "run_type": "iteration",
                     "items_per_second": 500.0}}],
}}))
"""


def baseline(items_per_second):
    return {
        "context": {"cxlsim_build_type": "Release"},
        "benchmarks": [{"name": "BM_Fake", "run_type": "iteration",
                        "items_per_second": items_per_second}],
    }


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
        bench = os.path.join(tmp, "fake_bench")
        with open(bench, "w") as f:
            f.write(FAKE_BENCH.format(python=sys.executable))
        os.chmod(bench, 0o755)
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

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
