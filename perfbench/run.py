#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

usage (from the repository root):
  python3 perfbench/run.py --workload <tenants_wall|ctrl_saturate|shards_sim>
                           --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (relative paths are taken from the
repository root) or .bench_build/, and is incremental after the first run.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The exit status is the benchmark's, or non-zero when the
sources or the build are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "thread_runtime.h")):
        fail("library sources (src/) not found next to perfbench/")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = out if os.path.isabs(out) else os.path.join(ROOT, out)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
