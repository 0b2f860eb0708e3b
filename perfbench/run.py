#!/usr/bin/env python3
"""Builds and runs wb_perfbench, the host-time benchmark of wasmbench.

Run from the repository root:

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds this directory's CMake project (the
library from ../src plus wb_perfbench, with optimisation) into .bench_build/;
later runs only re-check the build. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes its spans as Chrome trace_event JSON to
.bench_build/perfbench-<workload>.trace.json. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "wb_perfbench")


def build():
    if not os.path.exists(BINARY):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "wb_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["kernels", "toolchain", "replay"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.self_test:
        command = [BINARY, "--self-test"]
    else:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
