#!/usr/bin/env python3
"""Build kvbench from source, then run one workload.

    python3 bench/kvbench/run.py --workload get_uniform --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build/kvbench in
the checkout; the last line of stdout is kvbench's JSON result. See
bench/kvbench/README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "kvbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "kvbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "kvstore", "store.h")):
        sys.exit("kvbench: no masstree sources under %s; run from a full checkout" % ROOT)
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("kvbench: build failed: %s" % e)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", BUILD]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("kvbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
