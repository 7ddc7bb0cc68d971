#!/usr/bin/env python3
"""Build and run the FlyMon end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a stand-alone CMake package over ../src,
Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset, runs
the self-test of the benchmark's accounting, then the benchmark itself.
Build output goes to stderr; the benchmark's stdout is passed through, and
its last line is the JSON result.  With --trace 1 the recorded spans are
written to <build dir>/spans-<workload>-<seed>.jsonl.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def run(cmd, timeout=None):
    """Run cmd with its stdout sent to our stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "flymon_dataplane.hpp")):
        print(f"error: FlyMon sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]):
        return 3
    if not run(["cmake", "--build", build, "-j", jobs]):
        return 3
    if not run([os.path.join(build, "perfbench_selftest")], timeout=60):
        print("error: perfbench self-test failed", file=sys.stderr)
        return 4

    cmd = [os.path.join(build, "flymon_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 5
    sys.stdout.write(res.stdout)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
