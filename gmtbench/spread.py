#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and seed this runs gmtbench/run.py once, then prints
each metric's median, first and third quartile
(statistics.quantiles(n=4)) and spread = (Q3 - Q1) / median. With
--trace 1 it also runs the first seed a second time and checks that the
exact layer counts repeat: across the two runs of that seed, and for
fig8 and autotune (whose seed only orders the cells) across all seeds.
Run from the repository root:

    python3 gmtbench/spread.py --workloads fig8,autotune,compile \
        --seeds 10 --seconds 30 --trace 0 [--out FILE]

--out writes the statistics as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT_COUNTS = [
    "pdg.arcs", "coco.cut_solves", "mtcg.emitted_instrs",
    "mtverify.hb_pairs", "runtime.mt_dyn_instrs", "sim.cycles",
    "autotune.candidates",
]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s" %
                 (workload, seed, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: output check failed" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="fig8,autotune,compile")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {}
    problems = []
    for w in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = []
        for s in seeds:
            runs.append(run(w, s, args.seconds, args.trace))
            print("%s seed %d: %s" % (w, s, json.dumps(runs[-1])),
                  flush=True)
        report[w] = {m: stats([r[m] for r in runs]) for m in runs[0]}
        if args.trace:
            again = run(w, seeds[0], args.seconds, args.trace)
            same_seed = [runs[0], again]
            checked = runs + [again] if w != "compile" else same_seed
            for m in EXACT_COUNTS:
                if len({r[m] for r in checked}) != 1:
                    problems.append("%s: %s does not repeat exactly"
                                    % (w, m))
        for m, st in report[w].items():
            print("%-10s %-32s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %.4f" % (w, m, st["median"], st["q1"], st["q3"],
                                   st["spread"]))
    for p in problems:
        print("FLAG " + p)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
