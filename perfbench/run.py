#!/usr/bin/env python3
"""Builds and runs the ORQ end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload tpch_suite|adhoc_mix|wide_result \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the engine sources under
src/ plus the benchmark binary) into .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to stderr, so the last line of
stdout is the binary's JSON result. The binary runs pinned to one CPU.
--trace 1 also writes the traced run's spans to
.bench_build/spans/<workload>-<seed>.jsonl. See perfbench/NOTES.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("tpch_suite", "adhoc_mix", "wide_result")
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """Closed loops stop by 3 x --seconds; set-ups and references add less
    than 40 s. At --seconds 40 a hung run is stopped at 160 s."""
    return 40 + 3 * seconds


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "engine", "engine.h")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def pin_to_one_cpu():
    """Runs the benchmark on a single CPU (the highest allowed one).

    The host exposes about one effective core behind several vCPUs. Unpinned,
    every query's hand-offs between the client, connection and worker threads
    hop vCPUs, which adds host-dependent noise and no information.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    timeout = run_timeout_s(args.seconds)
    try:
        return subprocess.run(cmd, timeout=timeout,
                              preexec_fn=pin_to_one_cpu).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0f s" % timeout, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
