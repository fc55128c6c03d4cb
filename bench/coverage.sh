#!/usr/bin/env bash
# Measures how much of src/ the benchmarks and examples reach.
#
# Builds the library, cameo_bench and the examples with --coverage at -O0
# into build-coverage/cameo, and perfbench with --coverage at -O2 into
# build-coverage/perfbench (handed to perfbench/run.py as CARGO_TARGET_DIR):
# at -O0 the wall-clock workload cannot keep up with its offered load and
# reports "correct": false.
# It then runs every cameo_bench scenario in smoke mode, the examples
# (`ctest -L example`) and both perfbench workloads for 1 s, untraced and
# traced, and prints one line on stdout:
#
#   src/ lines unreached: N of M (<note>)
#
# M counts the src/ lines gcov instruments in any of those builds, and N of
# them never ran. Unit tests are not run, so a line that only a unit test
# reaches counts as unreached. gcov instruments no template member that
# nothing instantiates, so dead template code is in neither count; the note
# says so. Each perfbench leg's JSON is kept in build-coverage/legs/; a leg
# that reports "correct": false still counts toward reach, and the note names
# it. Before the summary line, stderr gets the 20 src/ files with the most
# unreached lines, most first, one per line as `path unreached/instrumented`.
# The script reports and does not gate. Builds are incremental; counters
# start from zero on every run. Build and run logs go to stderr.
#
# Usage: bench/coverage.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/build-coverage"
jobs=$(nproc)
((jobs > 4)) && jobs=4
generator=()
command -v ninja >/dev/null && generator=(-G Ninja)
configure=("${generator[@]}" -DCMAKE_BUILD_TYPE=Debug
           -DCMAKE_EXE_LINKER_FLAGS=--coverage)

cmake -S "$root" -B "$out/cameo" "${configure[@]}" \
  "-DCMAKE_CXX_FLAGS=--coverage -O0" >&2
cmake --build "$out/cameo" -j "$jobs" --target cameo_bench quickstart \
  fair_sharing ad_dashboard log_error_join >&2
# Configured on every run (run.py configures only a fresh tree), so a flag
# change here reaches an existing build.
cmake -S "$root/perfbench" -B "$out/perfbench" "${configure[@]}" \
  "-DCMAKE_CXX_FLAGS=--coverage -O2" >&2
find "$out" -name '*.gcda' -delete
mkdir -p "$out/legs"
rm -f "$out"/legs/*.json

"$out/cameo/cameo_bench" --smoke --out "$out/smoke" >&2
ctest --test-dir "$out/cameo" -L example --output-on-failure >&2
for workload in tenants_wall shards_sim; do
  for trace in 0 1; do
    leg=$workload-$([[ $trace == 1 ]] && echo traced || echo untraced)
    CARGO_TARGET_DIR="$out/perfbench" python3 "$root/perfbench/run.py" \
      --workload "$workload" --seed 9001 --seconds 1 --trace "$trace" |
      tee "$out/legs/$leg.json" >&2
  done
done

# A line counts once however many objects instrument it (headers are
# compiled into many), and as reached if any run executed it.
python3 - "$root/src" "$out" <<'EOF'
import json
import os
import subprocess
import sys

src, out = (os.path.realpath(p) for p in sys.argv[1:])
reached = {}
for directory, _, names in os.walk(out):
    notes = sorted(n for n in names if n.endswith(".gcno"))
    if not notes:
        continue
    gcov = subprocess.run(["gcov", "--json-format", "--stdout", *notes],
                          cwd=directory, capture_output=True, text=True,
                          check=True)
    for doc in gcov.stdout.splitlines():
        if not doc.strip():
            continue
        report = json.loads(doc)
        cwd = report["current_working_directory"]
        for f in report["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src + os.sep):
                continue
            for line in f["lines"]:
                key = (path, line["line_number"])
                reached[key] = reached.get(key, False) or line["count"] > 0
unreached = sum(1 for hit in reached.values() if not hit)

by_file = {}  # path -> [unreached, instrumented]
for (path, _), hit in reached.items():
    counts = by_file.setdefault(path, [0, 0])
    counts[0] += not hit
    counts[1] += 1
ranked = sorted(by_file.items(), key=lambda kv: (-kv[1][0], kv[0]))
print("src/ files with the most unreached lines:", file=sys.stderr)
for path, (missed, total) in ranked[:20]:
    if missed == 0:
        break
    rel = os.path.relpath(path, os.path.dirname(src))
    print(f"  {rel} {missed}/{total}", file=sys.stderr)

# The result is the last stdout line of each perfbench leg.
invalid = []
legs = os.path.join(out, "legs")
for name in sorted(os.listdir(legs)):
    with open(os.path.join(legs, name)) as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    if result.get("correct") is not True:
        invalid.append(name.removesuffix(".json"))
note = "gcov skips uninstantiated template members"
if invalid:
    note += '; "correct": false in ' + ", ".join(invalid)
print(f"src/ lines unreached: {unreached} of {len(reached)} ({note})")
EOF
