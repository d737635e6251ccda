#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (a CMake project compiling ../src) into .bench_build/;
later runs only rebuild what changed. Each workload runs in its own
process, so peak memory and set-up time are never shared between
workloads. The last line of stdout is the result as one JSON object;
the exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["apps-768-sync", "apps-64-sync-async", "serve-zipf-192"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.cc")):
        log("library sources not found under " + os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def run_one(workload, seed, seconds, trace):
    """Run one workload in its own process; returns (code, result)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--trace-out", os.path.join(
            BUILD, "trace-%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write(expired.stdout or "")
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("%s printed no result line (exit %d)"
            % (workload, proc.returncode))
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 2

    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            return code
        print(json.dumps(result), flush=True)
        return code

    # One command, every workload, each in its own process.
    results, worst = {}, 0
    for workload in WORKLOADS:
        code, result = run_one(workload, args.seed, args.seconds,
                               args.trace)
        worst = worst or code
        results[workload] = result
    correct = worst == 0 and all(r and r["correct"]
                                 for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
