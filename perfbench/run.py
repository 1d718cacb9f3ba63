#!/usr/bin/env python3
"""Entry point of the genlink benchmark (see README.md).

    python3 perfbench/run.py --workload {learn,serve,live} --seed N \
        --seconds S --trace {0,1}

Builds libgenlink and the perfbench program from the checkout's sources
into .bench_build/ at the repository root, then runs one workload. The
program prints a summary and, as the last line of standard output, one
JSON object with the run's metrics; run.py checks that it holds exactly
the metrics BENCHMARK.json lists for the run's kind, in their units. Build output goes to standard error. Exits
non-zero without a result when the build, the run or that check fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("learn", "serve", "live")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)

    # One build at a time per build directory; on a configured, up-to-date
    # tree both steps are no-ops that take a fraction of a second.
    started = time.monotonic()
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        ]
        for step in steps:
            left = BUILD_TIMEOUT_S - (time.monotonic() - started)
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=max(1.0, left))
            except subprocess.TimeoutExpired:
                print("perfbench: build timed out", file=sys.stderr)
                return 1
            if done.returncode != 0:
                print("perfbench: build failed: " + " ".join(step),
                      file=sys.stderr)
                return 1

    work_dir = os.path.join(
        build_root, "runs",
        "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rule", os.path.join(bench_dir, "rule.gla"),
        "--work-dir", work_dir,
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        return done.returncode
    lines = done.stdout.splitlines()
    problem = check_result(lines[-1] if lines else "",
                           os.path.join(root, "BENCHMARK.json"), args.trace)
    if problem is not None:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print("perfbench: " + problem, file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


def check_result(line, manifest_path, trace):
    """Returns why `line` is not the result BENCHMARK.json promises for
    a run with `trace`, or None when it is."""
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
        result = json.loads(line)
    except (OSError, ValueError) as e:
        return "no result to check: %s" % e
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return "the result line has the wrong keys"
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != wanted:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(printed.items()) ^ set(wanted.items()))
    return None


if __name__ == "__main__":
    sys.exit(main())
