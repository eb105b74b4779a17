#!/usr/bin/env python3
"""Builds and runs the cqlopt benchmark.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload flights_cold --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
checkout's src/ tree) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, under a perfbench/ subdirectory; later calls rebuild incrementally.
The benchmark's own arithmetic tests run after every build. The last line
of standard output is the run's JSON result; build output goes to standard
error. Exits non-zero, without a result, when the checkout holds no cqlopt
sources or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flights_cold", "rewrite", "serve_mixed")
# A run measures for --seconds and then checks its answers; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cqlopt sources at src/ in " + ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    if subprocess.run([os.path.join(out, "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        fail("the benchmark's self-test failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    build(out)
    if args.selftest:
        return 0

    # Relative to the checkout root, the binary's working directory: the
    # serve loop's unix socket lives there, and a socket path must stay
    # under 108 bytes.
    workdir = os.path.relpath(os.path.join(out, "run"), ROOT)
    if len(workdir) > 80:
        workdir = os.path.join(".bench_build", "run")
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--workdir", workdir,
               "--root", "."]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
