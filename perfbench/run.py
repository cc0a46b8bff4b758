#!/usr/bin/env python3
"""Builds the benchmark and runs one workload pinned to one CPU.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 20 --trace 0

The arguments are passed to the `perfbench` binary unchanged; its
standard output is passed through, so the last line is the result
object. Cargo's output goes to standard error. The build uses
CARGO_TARGET_DIR when it is set and `.bench_build` otherwise.

The benchmark process is pinned to the last CPU it may run on: with one
closed-loop client, client and server never need two CPUs at once, and
pinning removes the run-to-run swings of cross-CPU scheduling.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds plus a few seconds of set-up and checks;
# anything near this limit is a hang, and the child is killed.
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    cpu = max(os.sched_getaffinity(0))
    try:
        proc = subprocess.run(
            [binary] + sys.argv[1:],
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
