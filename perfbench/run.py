#!/usr/bin/env python3
"""Runs one workload of the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             --trace 0|1 [--smoke]

Run it from the root of a checkout. It builds the harness in perfbench/
together with the library sources in src/ (Release, under
$CARGO_TARGET_DIR or .bench_build), runs the workload, prints the
harness's report, and ends with one JSON line holding `correct`,
`attempted`, `failed` and the metrics BENCHMARK.json lists: its
`end_to_end` metrics for --trace 0, its `per_layer` metrics for --trace 1.
Workload sizes and the serve ladder are constants of the harness; the
seeds are listed in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], log_path, 300)
        if code != 0:
            fail("cmake configure failed, see " + log_path)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_logged(["cmake", "--build", build_dir, "-j", jobs], log_path,
                      BUILD_TIMEOUT_S)
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail("build failed, see " + log_path)
    return os.path.join(build_dir, "perfbench_harness")


def git_commit():
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT,
                                                                 top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO_ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_workload(workload, args, spec, harness, out_dir):
    """Runs the harness on one workload, prints its report, and returns the
    result line's object."""
    cmd = [harness, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           # A relative path keeps the server's socket path short.
           "--out-dir", os.path.relpath(out_dir),
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("harness exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    detail = json.loads(lines[-1])
    with open(os.path.join(out_dir, "result-%s-%d-trace%d.json" % (
            workload, args.seed, args.trace)), "w") as f:
        json.dump(detail, f, indent=1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = detail["metrics"].get(metric["name"])
        if got is None:
            fail("the harness did not report " + metric["name"])
        if got["unit"] != metric["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" % (
                metric["name"], got["unit"], metric["unit"]))
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(REPO_ROOT, "src"))
    try:
        with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read the benchmark definition: %s" % err)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload " + args.workload)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(REPO_ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    harness = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, spec, harness,
                                      out_dir)))
        return
    # Every workload in turn; each ends with its own result line.
    for name in names:
        print("== " + name)
        print(json.dumps(run_workload(name, args, spec, harness, out_dir)))


if __name__ == "__main__":
    main()
