#!/usr/bin/env python3
"""Self-test of the serving benchmark: a short run of every workload.

    python3 perfbench/selftest.py [--seconds 3]

Run from the repository root. For each workload in BENCHMARK.json, and
for serve_small, it makes two untraced runs on different seeds and one
traced run, through run.py, and checks that
  * each run is correct, with every named metric exactly once and with
    its unit (run.py refuses anything else);
  * replay_modeled_ms and record_modeled_s, virtual times, repeat exactly
    across the two seeds;
  * the max_rps p95 limit the run reports is the one the workload's `why`
    in BENCHMARK.json states (gated workloads);
  * the traced run shows the workload's structure (STRUCTURE below).
Exits non-zero on the first failed check.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("replay_modeled_ms", "record_modeled_s")
LIMIT = re.compile(r"max_rps p95 limit ([0-9.]+) ms")
# Per-layer ranges the traced run must land in: churn misses the plan
# cache and evicts an engine on every request; the others always hit and
# replay the fused warm program.
STRUCTURE = {
    "serve_small": {"serve.plan_hit_ratio": (1, 1), "replay.fused_frac": (1, 1)},
    "serve_large": {"serve.plan_hit_ratio": (1, 1), "replay.fused_frac": (1, 1)},
    "serve_churn": {"serve.plan_hit_ratio": (0, 0),
                    "serve.evictions_per_req": (0.8, 1.2)},
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: "
                 f"exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: correct "
                 f"{result['correct']}, failed {result['failed']}")
    limit = LIMIT.search(done.stderr)
    return result, float(limit.group(1)) if limit else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # serve_small is defined but not gated (README.md): run it too.
    for workload in spec["workloads"] + [{"name": "serve_small", "why": None}]:
        name = workload["name"]
        first, limit = run(name, 1, args.seconds, 0)
        second, _ = run(name, 2, args.seconds, 0)
        for metric in EXACT:
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            if a != b:
                sys.exit(f"FAIL {name}: {metric} {a} != {b} across seeds")
        if workload["why"] is not None:
            stated = LIMIT.search(workload["why"])
            if limit is None or stated is None or float(stated.group(1)) != limit:
                sys.exit(f"FAIL {name}: max_rps limit {limit} ms, BENCHMARK."
                         f"json states {stated.group(1) if stated else None}")
        traced, _ = run(name, 3, args.seconds, 1)
        for metric, (lo, hi) in STRUCTURE.get(name, {}).items():
            value = traced["metrics"][metric]["value"]
            if not lo <= value <= hi:
                sys.exit(f"FAIL {name}: traced {metric} {value} outside "
                         f"[{lo}, {hi}]")
        print(f"ok {name}: {len(first['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics, modeled values "
              f"exact, limit {limit:g} ms")


if __name__ == "__main__":
    main()
