#!/usr/bin/env python3
"""Builds and runs the dpart end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is built from source into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench) on first use. With
--trace 1 the Chrome trace is written next to the build and validated by
tools/trace_check; a trace it rejects makes the result incorrect. Any further
arguments (--self-check) go to the benchmark binary unchanged. The last line
of stdout is the JSON result; on a build or run failure nothing is printed
there and the exit code is non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
# Spans every traced run must contain: one round per workload and each
# public call the benchmark times.
REQUIRED_SPANS = [
    "round.compile", "round.prepare", "round.step", "round.service_exact",
    "round.service_renamed", "round.service_novel",
    "AutoParallelizer::plan", "PlanExecutor::preparePartitions",
    "PlanExecutor::verifyPartitions", "PlanExecutor::run",
    "PlanClient::parallelize",
]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j3",
                  "--target", "e2e_bench", "trace_check"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    out = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "e2e_bench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace] + extra
    trace_file = os.path.join(out, "trace-%s.json" % args.workload)
    if args.trace == "1":
        if os.path.exists(trace_file):
            os.remove(trace_file)
        cmd += ["--trace-file", trace_file]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print("perfbench: benchmark failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if args.trace == "1":
        check = subprocess.run(
            [os.path.join(out, "trace_check"), trace_file] + REQUIRED_SPANS,
            cwd=ROOT, stdout=sys.stderr)
        if check.returncode != 0:
            result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
