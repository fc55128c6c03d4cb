#!/usr/bin/env python3
"""Bench regression gate: diff fresh --smoke JSONs against bench/baselines/.

Usage:
    compare_baselines.py --results <dir> [--baselines <dir>]
                         [--threshold 0.15] [--list]
    compare_baselines.py --results <dir> --identical-to <dir>

For every BENCH_<name>.json in --results that has at least one baseline
BENCH_<name>.<tag>.json checked in, the newest baseline (highest tag in
natural order, so pr10 > pr5) is loaded and the *gated* metrics are
compared:

  - virtual-time metrics (keys ending in `_median_ms` / `_p99_ms`): these
    are deterministic for a fixed seed, so they are gated at `threshold`
    exactly -- any drift means the schedule itself changed.
  - wall-clock metrics (keys ending in `.ns_per_op` / `.ns_per_msg`): only
    gated when --gate-wall is passed, at 3x `threshold`. Checked-in wall
    baselines are only meaningful on the box that recorded them (a CI
    runner of a different CPU class would fail -- or vacuously pass --
    every run), so the default ctest/CI gate covers virtual-time metrics
    only; run with --gate-wall on the recording box for perf PRs.
  - `.min` companions (from --repeat runs) are ignored; the median is the
    gated statistic.

Deadline-met-rate metrics (keys ending in `_met_rate`, fractions in [0,1])
are deterministic for a fixed seed and gate in the *opposite* direction: a
fresh value below baseline * (1 - threshold) is a regression (higher is
better). Other success-rate/throughput metrics are deliberately not gated
here (workload-semantics changes move them legitimately); the replay golden
tests gate semantics.

--identical-to <dir> replaces the gate with an exact comparison, for
changes that must not move any output (refactors, deletions): every
BENCH_*.json in --results must have a same-named file in <dir>, and every
numeric metric must be present on both sides with the same value, except
the wall-clock ones (`is_wall_clock`: WALL_SUFFIXES, `.min` companions,
`runner.wall_sec`, `.speedup`, `overhead_frac.*`, `runtime_scaling.*`).
Typical use: run `cameo_bench --smoke --out <dir>` in a checkout of the
parent commit and in the change, then compare the two directories.

Exit status: 0 when no gated metric regressed (or, with --identical-to,
when every non-wall-clock metric matches), 1 otherwise, 2 on usage
errors. Intended to run as the `bench_compare_baselines` ctest (label
bench-smoke) after the per-figure smoke tests have produced their JSONs.
"""

import argparse
import json
import re
import sys
from pathlib import Path

SIM_SUFFIXES = ("_median_ms", "_p99_ms")      # deterministic virtual time
WALL_SUFFIXES = (".ns_per_op", ".ns_per_msg", ".ns_per_row")  # noisy real time
# Counting-allocator metrics: deterministic and expected to be exactly zero
# (the zero-allocation steady-state claim), so they gate absolutely -- any
# fresh allocation over the baseline count is a regression, even from a
# zero baseline (which the relative gate below would have to skip).
ALLOC_SUFFIXES = ("_allocs_per_msg",)
# Deadline-met rates: deterministic fractions in [0, 1] where *higher* is
# better, so the gate fires on a relative decrease instead of an increase.
MET_SUFFIXES = ("_met_rate",)
WALL_SLACK = 3.0


# Metrics that measure the host's wall clock, so two runs of one build
# differ in them; --identical-to skips exactly these.
WALL_CLOCK_KEYS = ("runner.wall_sec",)
WALL_CLOCK_PREFIXES = ("overhead_frac.", "runtime_scaling.")
WALL_CLOCK_SUFFIXES = WALL_SUFFIXES + (".min", ".speedup")


def is_wall_clock(key: str) -> bool:
    return (key in WALL_CLOCK_KEYS
            or any(key.startswith(p) for p in WALL_CLOCK_PREFIXES)
            or any(key.endswith(s) for s in WALL_CLOCK_SUFFIXES))


def is_alloc_metric(key: str) -> bool:
    return any(key.endswith(s) for s in ALLOC_SUFFIXES)


def is_met_metric(key: str) -> bool:
    return any(key.endswith(s) for s in MET_SUFFIXES)


def gate_budget(key: str, threshold: float, gate_wall: bool):
    """The allowed relative increase for `key`, or None when not gated."""
    if key.endswith(".min"):
        return None
    if is_alloc_metric(key):
        return 0.0  # absolute gate, handled separately from the ratio path
    if is_met_metric(key):
        return threshold  # gated on *decrease*, handled in the main loop
    if any(key.endswith(s) for s in SIM_SUFFIXES):
        return threshold
    if gate_wall and any(key.endswith(s) for s in WALL_SUFFIXES):
        return threshold * WALL_SLACK
    return None


def load_metrics(path: Path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    return {k: v for k, v in doc.get("metrics", {}).items()
            if isinstance(v, (int, float))}


def natural_key(tag: str):
    """Sort key treating digit runs numerically, so pr10-x > pr5-pooled."""
    return [(0, int(part)) if part.isdigit() else (1, part)
            for part in re.split(r"(\d+)", tag)]


def newest_baseline(baseline_dir: Path, bench: str):
    pattern = re.compile(rf"^BENCH_{re.escape(bench)}\.(?P<tag>.+)\.json$")
    candidates = []
    for p in baseline_dir.glob(f"BENCH_{bench}.*.json"):
        m = pattern.match(p.name)
        if m:
            candidates.append((m.group("tag"), p))
    if not candidates:
        return None, None
    tag, path = max(candidates, key=lambda c: natural_key(c[0]))
    return tag, path


def compare_identical(results_dir: Path, reference_dir: Path) -> int:
    """Fails on any missing file or any differing non-wall-clock metric."""
    failures = []
    result_paths = sorted(results_dir.glob("BENCH_*.json"))
    if not result_paths:
        print(f"error: no BENCH_*.json in {results_dir}", file=sys.stderr)
        return 2
    for result_path in result_paths:
        reference_path = reference_dir / result_path.name
        if not reference_path.is_file():
            failures.append(f"{result_path.name}: missing from {reference_dir}")
            continue
        fresh = load_metrics(result_path)
        ref = load_metrics(reference_path)
        keys = sorted(k for k in set(fresh) | set(ref) if not is_wall_clock(k))
        differing = [k for k in keys if fresh.get(k) != ref.get(k)]
        print(f"== {result_path.stem[len('BENCH_'):]}: {len(keys)} metrics, "
              f"{len(differing)} differing")
        for k in differing:
            failures.append(f"{result_path.name}:{k} {ref.get(k, 'missing')} "
                            f"-> {fresh.get(k, 'missing')}")
    if failures:
        print(f"\n{len(failures)} difference(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nall {len(result_paths)} result file(s) identical apart from "
          f"wall-clock metrics")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--results", required=True,
                    help="directory holding fresh BENCH_<name>.json files")
    ap.add_argument("--baselines", default=str(Path(__file__).parent / "baselines"),
                    help="directory holding BENCH_<name>.<tag>.json baselines")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative regression budget (default 0.15 = 15%%)")
    ap.add_argument("--list", action="store_true",
                    help="print every gated comparison, not just regressions")
    ap.add_argument("--gate-wall", action="store_true",
                    help="also gate wall-clock ns/op metrics (same-box only)")
    ap.add_argument("--identical-to", metavar="DIR",
                    help="instead of gating, require every non-wall-clock "
                         "metric to equal the same-named JSON in DIR")
    args = ap.parse_args()

    results_dir = Path(args.results)
    baseline_dir = Path(args.identical_to or args.baselines)
    if not results_dir.is_dir():
        print(f"error: results dir {results_dir} does not exist", file=sys.stderr)
        return 2
    if not baseline_dir.is_dir():
        print(f"error: baselines dir {baseline_dir} does not exist", file=sys.stderr)
        return 2
    if args.identical_to is not None:
        return compare_identical(results_dir, baseline_dir)

    regressions = []
    compared_any = False
    for result_path in sorted(results_dir.glob("BENCH_*.json")):
        bench = result_path.stem[len("BENCH_"):]
        tag, baseline_path = newest_baseline(baseline_dir, bench)
        if baseline_path is None:
            continue
        fresh = load_metrics(result_path)
        base = load_metrics(baseline_path)
        def budget_of(k):
            return gate_budget(k, args.threshold, args.gate_wall)

        shared = [(k, budget_of(k)) for k in fresh
                  if k in base and budget_of(k) is not None]
        # A gated metric that existed in the baseline but vanished from the
        # fresh run is a gate hole, not a pass: fail it like a regression.
        missing = [k for k in base
                   if k not in fresh and budget_of(k) is not None]
        if not shared and not missing:
            continue
        compared_any = True
        for key in missing:
            print(f"  REGRESSION {key}: present in baseline '{tag}' but "
                  f"missing from fresh results")
            regressions.append((bench, key, base[key], float("nan"), 1.0))
        print(f"== {bench}: vs baseline '{tag}' "
              f"({len(shared)} gated metrics, budget +{args.threshold:.0%}, "
              f"wall-clock x{WALL_SLACK:.0f})")
        for key, budget in shared:
            b, f = base[key], fresh[key]
            if is_alloc_metric(key):
                regressed = f > b + 1e-9
                verdict = "REGRESSION" if regressed else "ok"
                if regressed or args.list:
                    print(f"  {verdict:10s} {key}: baseline {b:.3f} -> {f:.3f} "
                          f"(absolute zero-tolerance gate)")
                if regressed:
                    regressions.append((bench, key, b, f, f - b))
                continue
            if b <= 0:
                continue
            if is_met_metric(key):
                ratio = (f - b) / b
                regressed = f < b * (1.0 - budget)
                verdict = "REGRESSION" if regressed else "ok"
                if regressed or args.list:
                    print(f"  {verdict:10s} {key}: baseline {b:.3f} -> {f:.3f} "
                          f"({ratio:+.1%}, budget -{budget:.0%}, "
                          f"higher is better)")
                if regressed:
                    regressions.append((bench, key, b, f, ratio))
                continue
            ratio = (f - b) / b
            verdict = "REGRESSION" if ratio > budget else "ok"
            if verdict == "REGRESSION" or args.list:
                print(f"  {verdict:10s} {key}: baseline {b:.3f} -> {f:.3f} "
                      f"({ratio:+.1%}, budget +{budget:.0%})")
            if verdict == "REGRESSION":
                regressions.append((bench, key, b, f, ratio))

    if not compared_any:
        print("error: no result/baseline pairs with gated metrics found",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"\n{len(regressions)} gated metric(s) regressed past "
              f"+{args.threshold:.0%}:")
        for bench, key, b, f, ratio in regressions:
            print(f"  {bench}:{key} {b:.3f} -> {f:.3f} ({ratio:+.1%})")
        return 1
    print("\nall gated metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
