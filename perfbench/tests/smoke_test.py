#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, in well under a minute once the harness is built.

    python3 perfbench/tests/smoke_test.py

Run it from the root of a checkout. It asserts that each run prints every
metric BENCHMARK.json names for its mode, with that metric's unit and a
finite value; that every run is correct with no failed operation
(error_rate 0); and that every determinism-guard count the untraced and
traced runs share is identical.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SEED = 3


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise AssertionError("%s trace=%d exited with %d" %
                             (workload, trace, proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def detail(workload, trace):
    """The harness's full report, which run.py keeps in the build tree."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(REPO_ROOT, build_root, "perfbench", "out",
                        "result-%s-%d-trace%d.json" % (workload, SEED, trace))
    with open(path) as f:
        return json.load(f)


def check_result(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label + ": not correct"
    assert result["attempted"] >= 1, label
    assert result["failed"] == 0, label + ": error_rate is not 0"
    names = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(names), (
        label + ": metrics differ: " +
        str(set(result["metrics"]) ^ set(names)))
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name], label + ": unit of " + name
        assert isinstance(metric["value"], (int, float)), label + ": " + name
        assert math.isfinite(metric["value"]), label + ": " + name


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        try:
            check_result(run(workload, 0), spec["end_to_end"],
                         workload + " untraced")
            check_result(run(workload, 1), spec["per_layer"],
                         workload + " traced")
            untraced = detail(workload, 0)
            traced = detail(workload, 1)
            assert untraced["error_rate"] == 0 and traced["error_rate"] == 0
            shared = set(untraced["counts"]) & set(traced["counts"])
            assert shared, workload + ": no shared determinism counts"
            for key in shared:
                assert untraced["counts"][key] == traced["counts"][key], (
                    "%s: counts of %s differ between untraced and traced "
                    "runs" % (workload, key))
            print("ok   %s (%d shared counts)" % (workload, len(shared)))
        except AssertionError as err:
            failures += 1
            print("FAIL %s: %s" % (workload, err))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
