#!/usr/bin/env python3
"""Builds the PQS-DA benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_800 --seed 1 --seconds 28 --trace 0

The library (src/) and the benchmark binary are compiled with CMake into
.bench_build/ at the repository root on first use; later runs rebuild only
what changed. Build output goes to stderr. The binary's report goes to
stdout, and its last line is the JSON result. With --trace 1 the run's
spans are written to .bench_build/spans/<workload>-<seed>.jsonl.

The exit status is the binary's: 0 only when every output check passed. A
build failure exits nonzero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "pqsda_bench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    # Configure until a build succeeded once (a failed configure leaves a
    # cache behind but no build system).
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "pqsda_bench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    except KeyboardInterrupt:
        pass
    child.kill()
    child.wait()
    return 1


if __name__ == "__main__":
    sys.exit(main())
