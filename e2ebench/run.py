#!/usr/bin/env python3
"""Builds and runs the emx end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
emx libraries and the benchmark into .bench_build/ (RelWithDebInfo); later
calls rebuild only what changed. The benchmark's output is passed through;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. A traced run (--trace 1) also writes its spans as JSON lines
to .bench_build/traces/. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# One run must end within 180 s; the benchmark is stopped before that.
RUN_TIMEOUT_S = 170


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "e2e_bench")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--recorded", os.path.join(HERE, "recorded.tsv")]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, EMX_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode or 1
    result = json.loads(lines[-1])
    reported = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if proc.returncode == 0 and reported != declared:
        print("metrics differ from BENCHMARK.json: %s" %
              sorted(reported ^ declared), file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        lines[-1] = json.dumps(result)
    print("\n".join(lines))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
