#!/usr/bin/env python3
"""Builds and runs the axmlx end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload tree_commit --seed 1 --seconds 30 \
        --trace 0
    python3 e2ebench/run.py --selftest
    python3 e2ebench/run.py --sweep --seed 1

The first call configures and builds the library from src/ plus the
benchmark into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. WAL directories and the
axmlx-bench-v1 reports go to the binary's --workdir (default .bench_work/).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds; returns True on success."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "e2ebench"))
    if not build(build_dir):
        print("build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "axmlx_e2e")
    args = sys.argv[1:]
    if "--selftest" not in args:
        return subprocess.run([binary] + args).returncode
    # The self-test prints "report <path>" for each axmlx-bench-v1 report it
    # wrote; every one must stay readable by axmlx_report.
    result = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        return result.returncode
    reports = [line[len("report "):] for line in result.stdout.splitlines()
               if line.startswith("report ")]
    checker = os.path.join(build_dir, "axmlx_report")
    for path in reports:
        if subprocess.run([checker, "--check", path]).returncode != 0:
            return 1
    if not reports:
        print("self-test wrote no report to check", file=sys.stderr)
        return 1
    print("checked %d report(s) with axmlx_report --check" % len(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
