#!/usr/bin/env python3
"""Self-test of the benchmark: every workload briefly, untraced and traced.

Usage, from the repository root:

    python3 omqbench/selftest.py [--seconds 2]

Checks that each run exits 0 with a correct result whose last stdout line
has exactly the keys correct/attempted/failed/metrics, and that it prints
every metric BENCHMARK.json names (end-to-end with --trace 0, per-layer with
--trace 1) with its unit and nothing else. Finally checks that the
benchmark refuses to run, without printing a result, from a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def check_run(spec, workload, trace, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    errors = []
    if p.returncode != 0:
        return [f"exit code {p.returncode}: {p.stderr[-2000:]}"]
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line is not JSON: {e}"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int)):
        errors.append(f"attempted={attempted!r} failed={failed!r}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"unexpected metrics {sorted(extra)}")
    return errors


def check_bare_directory(spec):
    """The benchmark alone cannot build the program: it must fail cleanly."""
    bare = os.path.join(ROOT, ".omqbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if p.returncode == 0:
        errors.append("exited 0 in a directory without the program")
    if '"correct"' in p.stdout:
        errors.append("printed a result in a directory without the program")
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(spec, workload, trace, args.seconds)
            status = "ok" if not errors else "FAIL"
            print(f"{status} {workload} --trace {trace}", flush=True)
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    errors = check_bare_directory(spec)
    print(("ok" if not errors else "FAIL") + " refuses to run without the program")
    for e in errors:
        print(f"    {e}")
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
