#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tune --seed 7 --seconds 10 --trace 0

Run it from the repository root.  The first call configures and builds
tilo_perfbench (the tilo libraries plus the sources in this directory) under
.bench_build/; later calls rebuild only what changed.  Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result.  Sockets,
the plan store and traces live in .bench_build/run/, which each run empties.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["tune", "serve-hot", "serve-churn", "fleet-sweep"]


def build(env):
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "tilo_perfbench",
                    "-j", "4"], stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD, "tilo_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tilo sources at src/; run from a full checkout")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(ROOT, ".bench_build", "run"),
        "--golden", os.path.join(HERE, "golden_tune.txt"),
    ], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
