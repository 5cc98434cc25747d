#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at smoke size (a couple of
kernels, one second) untraced and traced, and checks that each run
passes its output checks and prints every metric BENCHMARK.json names,
with its unit. Run from the repository root:

    python3 gmtbench/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                               text=True)
            where = "%s --trace %d" % (w["name"], trace)
            lines = p.stdout.strip().splitlines()
            if p.returncode or not lines:
                problems.append("%s: exit %d\n%s" %
                                (where, p.returncode, p.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: output check failed" % where)
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (where, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %s, not %s" %
                                    (where, m["name"], got["unit"],
                                     m["unit"]))
            extra = set(metrics) - {m["name"] for m in wanted[trace]}
            if extra:
                problems.append("%s: unlisted metrics %s" %
                                (where, sorted(extra)))
            print("%s: %d metrics" % (where, len(metrics)))
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
