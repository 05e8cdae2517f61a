#!/usr/bin/env python3
"""Builds `obda` and `omqbench` from this checkout, then runs one benchmark run.

Usage, from the repository root:

    python3 omqbench/run.py --workload hot_cached --seed 1 --seconds 20 --trace 0

Build output goes to stderr; the last stdout line is the run's JSON result.
Artifacts land in $CARGO_TARGET_DIR (default `.bench_build`), inputs and
traces in `.omqbench_work`, both at the repository root.
"""

import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--locked", "--offline", "--quiet", "-p", "obda", "--bin", "obda"],
        ["cargo", "build", "--release", "--locked", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("omqbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(target, "release", "omqbench")
    argv = [binary, "run", *sys.argv[1:],
            "--obda", os.path.join(target, "release", "obda"),
            "--work", os.path.join(ROOT, ".omqbench_work")]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
