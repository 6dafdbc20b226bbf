#!/usr/bin/env python3
"""Runs one workload of the serving benchmark and prints its result.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 15 --trace 0

Run from the repository root. On first use it builds perfbench/ (which
compiles the repository's src/) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that is set. It then runs serve_bench,
checks that the result names exactly the metrics BENCHMARK.json lists for
the trace mode (end_to_end for --trace 0, per_layer for --trace 1), each
once and with its unit, and prints the result as the last line of stdout.
A traced run also writes its spans to <build>/traces/ as Chrome
trace_event JSON. Build and run logs go to stderr.

Exits non-zero without printing a result when the sources are missing or
the build, the run or the check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sources: {ROOT}/src/CMakeLists.txt is missing")
    configure = ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(bdir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", bdir, "--target", "serve_bench",
                 "-j", "4"]):
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "serve_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise ValueError(f"duplicate keys {sorted(dup)}")
    return dict(pairs)


def check(result, trace):
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        fail("failed must be a whole number")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"serve_bench exited with {done.returncode}")
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        fail(f"unreadable result: {e}")
    check(result, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
