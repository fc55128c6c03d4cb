#!/usr/bin/env bash
# Measures how much of src/ the benchmarks and examples reach.
#
# Builds the library, cameo_bench and the examples with --coverage at -O0
# into build-coverage/cameo, and perfbench with the same flags into
# build-coverage/perfbench (handed to perfbench/run.py as CARGO_TARGET_DIR).
# It then runs every cameo_bench scenario in smoke mode, the examples
# (`ctest -L example`) and both perfbench workloads for 1 s, untraced and
# traced, and prints one line on stdout:
#
#   src/ lines unreached: N of M
#
# M counts the src/ lines gcov instruments in any of those builds, and N of
# them never ran. Unit tests are not run, so a line that only a unit test
# reaches counts as unreached. Builds are incremental; counters start from
# zero on every run. Build and run logs go to stderr.
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
           "-DCMAKE_CXX_FLAGS=--coverage -O0"
           -DCMAKE_EXE_LINKER_FLAGS=--coverage)

cmake -S "$root" -B "$out/cameo" "${configure[@]}" >&2
cmake --build "$out/cameo" -j "$jobs" --target cameo_bench quickstart \
  fair_sharing ad_dashboard log_error_join >&2
if [[ ! -f "$out/perfbench/CMakeCache.txt" ]]; then
  cmake -S "$root/perfbench" -B "$out/perfbench" "${configure[@]}" >&2
fi
find "$out" -name '*.gcda' -delete

"$out/cameo/cameo_bench" --smoke --out "$out/smoke" >&2
ctest --test-dir "$out/cameo" -L example --output-on-failure >&2
for workload in tenants_wall shards_sim; do
  for trace in 0 1; do
    CARGO_TARGET_DIR="$out/perfbench" python3 "$root/perfbench/run.py" \
      --workload "$workload" --seed 9001 --seconds 1 --trace "$trace" >&2
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
print(f"src/ lines unreached: {unreached} of {len(reached)}")
EOF
