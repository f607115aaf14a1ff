#!/usr/bin/env python3
"""Build and run the reproduction benchmark.

    python3 reprobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 reprobench/run.py --all --seed N --seconds S --trace 0|1
    python3 reprobench/run.py --self-test

Run from the root of a checkout.  The first call configures and compiles the
library and the benchmark program (CMake, into $CARGO_TARGET_DIR/reprobench, default
.bench_build/reprobench); later calls only rebuild what changed.  The program
runs as this script's one child process and all the benchmark's load comes
from it; this wrapper only waits.  Its standard output ends with the result JSON line.
Traces of --trace 1 runs go to <build dir>/traces.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "2"


def fail(message):
    print("reprobench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, base)), "reprobench")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", directory, "--target", "reprobench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build output goes to stderr so stdout stays the benchmark's.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(directory, "reprobench")


def check_catalogue(binary):
    """BENCHMARK.json names exactly the program's metrics, units and workloads."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return 0
    with open(path) as f:
        spec = json.load(f)
    listed = json.loads(subprocess.run(
        [binary, "--list-metrics"], check=True, capture_output=True,
        text=True).stdout)
    problems = 0
    for key in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in listed[key]}
        have = {m["name"]: m["unit"] for m in spec[key]}
        if want != have:
            print("FAIL BENCHMARK.json %s differs from the program: %s" %
                  (key, sorted(set(want.items()) ^ set(have.items()))))
            problems += 1
    if [w["name"] for w in spec["workloads"]] != listed["workloads"]:
        print("FAIL BENCHMARK.json workloads differ from the program")
        problems += 1
    print("BENCHMARK.json catalogue: %s" % ("ok" if problems == 0 else "FAIL"))
    return problems


def run_all(binary, argv, env, out_dir):
    """Run every workload in turn with the same arguments; print one table."""
    listed = json.loads(subprocess.run(
        [binary, "--list-metrics"], check=True, capture_output=True,
        text=True).stdout)
    rows = []
    for name in listed["workloads"]:
        done = subprocess.run(
            [binary, "--workload", name] + argv + ["--out-dir", out_dir],
            env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    print("\nall workloads:")
    for name, result in rows:
        print("  %-15s correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for metric, m in result["metrics"].items():
            print("    %-38s %16.6g %s" % (metric, m["value"], m["unit"]))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv):
    directory = build_dir()
    binary = build(directory)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SKS_")}
    out_dir = os.path.join(directory, "traces")
    if "--self-test" in argv:
        problems = check_catalogue(binary)
        code = subprocess.run([binary] + argv, env=env).returncode
        return code if code != 0 else (1 if problems else 0)
    if "--all" in argv:
        return run_all(binary, [a for a in argv if a != "--all"], env, out_dir)
    # The program prints the result line only when it ends normally.
    return subprocess.run([binary] + argv + ["--out-dir", out_dir],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
