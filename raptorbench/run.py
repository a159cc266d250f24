#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 raptorbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the ThreatRaptor library from src/ and the benchmark driver with
CMake into .bench_build/, runs one workload, and prints the driver's output.
The last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. The line is checked
against BENCHMARK.json before it is printed. Exits non-zero, without a
result line, when the build fails or the output does not match; exits
non-zero with the result line when an output check failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "raptorbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"raptorbench: {msg}", file=sys.stderr)
    sys.exit(1)


def scratch_env():
    """Environment for child processes: compilers and the driver keep their
    temporary files inside the build directory, not the system's."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_DIR, "-j", "4", "--target", "raptorbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=scratch_env())
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def code_id():
    """Digest of the library and benchmark sources: the key under which the
    driver keeps its exact-repeat records."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", BUILD_DIR, "--code-id", code_id()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              env=scratch_env())
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"driver exited with {done.returncode} and no result")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
