#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload {analyze,tune,stack,fleet} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The driver and the src/ libraries it links
are built with CMake under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The last line of
stdout is the driver's JSON result. With --trace 1 the recorded spans are
also written to <build root>/perfbench-spans/<workload>-seed<N>.json.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analyze", "tune", "stack", "fleet")
MAX_BUILD_JOBS = 4


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(MAX_BUILD_JOBS, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(os.getcwd(), ".bench_build"))
    binary = build(os.path.join(root, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(root, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
