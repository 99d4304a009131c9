#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (a CMake project that compiles ../src) into the directory named
by CARGO_TARGET_DIR, else .bench_build; later calls only re-check the
build.  Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result.  --selftest builds and runs the harness tests.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "ingest_repl", "fleet_query", "paper_fleet")


def build(build_dir, target):
    """Configures (once) and builds `target`; exits non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = "harness_test" if args.selftest else "nwsbench"
    build(build_dir, target)
    binary = os.path.join(build_dir, target)
    if args.selftest:
        sys.exit(subprocess.run([binary]).returncode)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        sys.exit(subprocess.run(cmd, timeout=170).returncode)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded 170 s")


if __name__ == "__main__":
    main()
