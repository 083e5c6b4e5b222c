#!/usr/bin/env python3
"""Builds and runs the end-to-end tabulard benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload hot_read_resident --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every call configures and builds the repository's libraries, tabulard and
the perfbench program into .bench_build/ (Release); after the first call
only what changed is rebuilt. The program's last line of standard output is
one JSON object; this script checks its metric names and units against
BENCHMARK.json before passing it on.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 170


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
         "tabulard"],
    ]
    for cmd in steps:
        if run_logged(cmd, log_path) != 0:
            with open(log_path) as log:
                sys.stderr.write(log.read()[-4000:])
            sys.stderr.write("perfbench: build failed\n")
            return False
    return True


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    program = os.path.join(BUILD, "perfbench")
    if args.selftest:
        return subprocess.run([program, "--selftest"]).returncode

    os.makedirs(WORK, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tabulard", os.path.join(BUILD, "tabular", "tools", "tabulard"),
           "--work", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % proc.returncode)
        return 1
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: %s\n" % problem)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
