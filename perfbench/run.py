#!/usr/bin/env python3
"""Builds ardf-perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload lint_big_loop --seed 7 --seconds 35 --trace 0

The build goes to .bench_build/perfbench (Release) under the checkout
root; later runs only re-check it. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ardf-perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout, stdout):
    """Runs cmd, killing and reaping it on timeout; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ardf sources (src/) in this checkout", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code = run_checked(["cmake", "-S", SOURCE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    code = run_checked(["cmake", "--build", BUILD, "-j", jobs],
                       BUILD_TIMEOUT_S, sys.stderr)
    return code == 0 and os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", f"perfbench-trace-{args.workload}.json")]
    sys.stdout.flush()
    return run_checked(cmd, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
