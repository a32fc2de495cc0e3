#!/usr/bin/env python3
"""Builds the lampbench binary from source and runs one workload.

Usage (from the repository root):

    python3 lampbench/run.py --workload proven --seed 1 --seconds 50 --trace 0

lampbench is configured and built with CMake under $CARGO_TARGET_DIR
(default: .bench_build at the repository root); an up-to-date build only
re-checks the configuration. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. With --trace 1 the Chrome
trace of the traced run is written next to the build as
lampbench-trace-<workload>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures and builds lampbench; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lampbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "lampbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "lampbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"lampbench: build failed: {err}", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    workload = "run"
    for i, arg in enumerate(args[:-1]):
        if arg == "--workload":
            workload = args[i + 1]
    trace_out = os.path.join(build_dir, f"lampbench-trace-{workload}.json")
    return subprocess.run([binary, *args, "--trace-out", trace_out]).returncode


if __name__ == "__main__":
    sys.exit(main())
