#!/usr/bin/env python3
"""Ten-run steadiness table for the end-to-end benchmark.

    python3 e2ebench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--seconds 10] [--out e2ebench/STEADINESS.md]

Runs every workload --runs times through run.py, one seed per round, and
alternates the workload order between rounds (forward, then reversed), so
that slow drift on a shared host does not land on one workload. Writes a
markdown table giving, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4), the interquartile spread as a share
of the median (the figure each metric's bound is judged against) and the
max/min ratio, followed by every raw value.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("%s seed %d failed: %s" % (workload, seed, result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE, "STEADINESS.md"))
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    seeds = []
    for r in range(args.runs):
        seed = args.first_seed + r
        seeds.append(seed)
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            t0 = time.time()
            for name, v in run_once(w, seed, args.seconds).items():
                values[w].setdefault(name, []).append(v)
            print("round %d seed %d %s: %.0f s" % (r, seed, w,
                                                   time.time() - t0),
                  file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ["# Steadiness of the end-to-end benchmark", "",
           "%d runs per workload, seeds %d-%d, one thread, %d s per run; "
           "the workload order alternates between rounds. Host: %s, "
           "%d CPUs. Written by `python3 e2ebench/steadiness.py`." %
           (args.runs, seeds[0], seeds[-1], args.seconds, platform.machine(),
            os.cpu_count() or 0), "",
           "`spread` is (Q3 - Q1) / median; a metric is steady when it is "
           "below a third of its bound (`setup_s` is judged on its median "
           "only).", ""]
    for w in workloads:
        out += ["## %s" % w, "",
                "| metric | median | Q1 | Q3 | spread | bound | max/min |",
                "|---|---|---|---|---|---|---|"]
        for name in sorted(values[w]):
            v = values[w][name]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            ratio = max(v) / min(v) if min(v) else float("inf")
            out.append("| %s | %.6g | %.6g | %.6g | %.4f | %s | %.3f |" %
                       (name, med, q1, q3, spread, bounds.get(name, "-"),
                        ratio))
        out.append("")
    out += ["## Raw values", "", "Seed order: %s." % seeds, ""]
    for w in workloads:
        for name in sorted(values[w]):
            out.append("- %s %s: %s" % (w, name, ", ".join(
                "%.6g" % x for x in values[w][name])))
    with open(args.out, "w") as f:
        f.write("\n".join(out) + "\n")
    print("\n".join(out))


if __name__ == "__main__":
    main()
