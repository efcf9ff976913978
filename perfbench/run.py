#!/usr/bin/env python3
"""Builds and runs the QueryER benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload er_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call builds the engine and the
benchmark from source into .bench_build/perfbench (or $CARGO_TARGET_DIR/
perfbench when that is set); the tables for a seed are generated once into
.bench_build/data/seed-<n>. The last line of standard output is the run's
JSON result. `--floor` prints the workload's answer_f1 floor for the seed
instead of running it.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("er_cold", "analytics_warm", "wire_mixed")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; stdout is the result's."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(root):
    out = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_quiet(cmd)
        run_quiet(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    return os.path.join(out, "perfbench")


def dataset(root, binary, seed):
    data = os.path.join(root, "data", "seed-%d" % seed)
    if os.path.isdir(data):
        return data
    os.makedirs(os.path.dirname(data), exist_ok=True)
    staging = "%s.tmp-%d" % (data, os.getpid())
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    result = subprocess.run([binary, "gen", "--seed", str(seed), "--out", staging],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        fail("generating the tables for seed %d failed" % seed)
    os.rename(staging, data)
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--floor", action="store_true",
                        help="print the answer_f1 floor instead of running")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.exists(os.path.join(ROOT, "src", "engine", "query_engine.h")):
        fail("the engine sources (src/) are not next to perfbench/")

    root = build_root()
    binary = build(root)
    data = dataset(root, binary, args.seed)
    if args.floor:
        cmd = [binary, "floor", "--workload", args.workload, "--data", data,
               "--seconds", str(args.seconds)]
    else:
        cmd = [binary, "run", "--workload", args.workload, "--data", data,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
