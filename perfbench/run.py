#!/usr/bin/env python3
"""Builds the layered benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. The first call configures and
builds perfbench/ (and the library sources it links) into .bench_build/;
later calls only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every correctness check passed, nonzero otherwise or
when the build fails.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources under src/", file=sys.stderr)
        return False
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", BUILD_JOBS],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (small inputs)")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.tiny:
        command.append("--tiny")
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
