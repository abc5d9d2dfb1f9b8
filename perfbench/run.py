#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Builds perfbench/bench.exe with dune (the shared dune cache is disabled so
nothing is written outside the checkout), then runs it with the same
arguments and passes its output and exit code through. The last line of
standard output is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("compile", "squeeze", "chip", "fabric")
TARGET = os.path.join("perfbench", "bench.exe")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a checkout of the repository "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "./" + TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join("_build", "default", TARGET)
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
