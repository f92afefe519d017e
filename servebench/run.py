#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 servebench/run.py --workload query_light --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. Builds kpef_serve and the servebench client
from source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one
benchmark run in a scratch directory under .bench_work/, and forwards the
client's output: the last stdout line is the JSON result. The span trace
of a --trace 1 run and every result line are kept under
.bench_work/results/. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "servebench", "kpef_serve",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale (1.0 = 3000 papers)")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1

    results = os.path.join(ROOT, ".bench_work", "results")
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    cmd = [
        os.path.join(build_dir, "servebench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale),
        "--serve-bin", os.path.join(build_dir, "kpef", "src", "serve",
                                    "kpef_serve"),
        "--work-dir", work,
        "--trace-out", os.path.join(results, tag + ".trace.json"),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"servebench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    with open(os.path.join(results, tag + ".txt"), "w") as f:
        f.write(proc.stdout)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
