#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload in BENCHMARK.json for a tiny duration, untraced and
traced, and asserts that each run exits 0, passes its correctness checks,
and emits exactly the end-to-end (untraced) or per-layer (traced) metrics
BENCHMARK.json names, each finite and with the declared unit.

usage (from the repository root): python3 perfbench/selftest.py [--seconds N]
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    return json.loads(lines[-1]), proc.stderr


def check(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correctness checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if result.get("failed") != 0:
        problems.append("failed = %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append("metric names differ: missing %s, extra %s"
                        % (sorted(names - set(metrics)), sorted(set(metrics) - names)))
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % m["name"])
        if got.get("unit") != m["unit"]:
            problems.append("%s has unit %r, expected %r" % (m["name"], got.get("unit"), m["unit"]))
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, err = run(workload, args.seconds, trace)
            problems = [err] if result is None else check(result, expected)
            status = "ok" if not problems else "FAIL"
            print("%-14s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
