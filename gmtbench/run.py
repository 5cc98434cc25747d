#!/usr/bin/env python3
"""Build the gmtbench driver from source and run one benchmark workload.

Usage, from the repository root:

    python3 gmtbench/run.py --workload fig8|autotune|compile --seed N \
        --seconds S --trace 0|1 [--smoke]

The driver is configured and built (Release) under the directory named
by CARGO_TARGET_DIR, relative to the repository root, or .bench_build
when it is unset. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. The exit code is the driver's, or
nonzero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            print("gmtbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    args = sys.argv[1:]
    name = "bench"
    if "--workload" in args[:-1]:
        name = args[args.index("--workload") + 1]
    cmd = [os.path.join(out, "gmtbench"), *args,
           "--expected", os.path.join(HERE, "expected.txt"),
           "--spans", os.path.join(out, "spans-%s.jsonl" % name)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
