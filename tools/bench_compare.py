#!/usr/bin/env python3
"""Compare two BENCH_*.json reports and fail on throughput regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.10]
    bench_compare.py --run-and-compare BINARY BASELINE.json [--tolerance T]

Both files use the bench_common.h JsonReport schema: a top-level object
with a `metrics` array of {name, unit, ops, wall_seconds, ops_per_sec}
and an optional top-level `peak_rss_bytes`.
A metric regresses when its current ops_per_sec falls more than
`--tolerance` (fraction, default 0.10 = 10%) below the baseline's.
Metrics present only in the current file are reported as new (not a
failure); metrics that disappeared fail, since a silently dropped
benchmark is how coverage rots.

Peak RSS is gated too: when both reports carry `peak_rss_bytes`, the
current value may not exceed the baseline by more than --rss-tolerance
(default 0.25 = 25%; memory is noisier than throughput).  A report
missing the key — e.g. a baseline produced before the field existed —
skips the gate instead of failing.

--run-and-compare spawns BINARY with `--quick --json <tmp>` first, then
compares the fresh report against BASELINE.json.  This powers the
`bench-compare` ctest: the committed baseline was produced on a different
machine, so that gate passes a generous --tolerance and is a smoke check
for order-of-magnitude regressions, not a 10% gate.  --run-args replaces
the default `--quick` when the committed baseline was recorded at a
different scale (the load-curve gate passes `--full` so current and
baseline measure the same population).

The two reports must describe the same run configuration: when their
`jobs`, `scale` or `seed` differ, the tool exits 2 instead of scoring
them (at more jobs every shard builds its own replica, so peak RSS and
throughput are not comparable).

Exit codes: 0 ok, 1 regression/missing metric, 2 usage or I/O error, or
mismatched run configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile


def load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"bench_compare: cannot read {path}: {error}")
    if not isinstance(report.get("metrics"), list):
        raise SystemExit(f"bench_compare: {path} has no `metrics` array")
    return report


def metric_map(report: dict) -> dict[str, dict]:
    return {m["name"]: m for m in report["metrics"] if "name" in m}


def compare_rss(baseline: dict, current: dict, rss_tolerance: float) -> int:
    """Gates top-level peak_rss_bytes; absence on either side skips."""
    base_rss = baseline.get("peak_rss_bytes")
    cur_rss = current.get("peak_rss_bytes")
    if not isinstance(base_rss, (int, float)) or \
            not isinstance(cur_rss, (int, float)):
        print("peak_rss_bytes: not present in both reports, gate skipped")
        return 0
    if base_rss <= 0:
        print(f"peak_rss_bytes: baseline is {base_rss}, gate skipped")
        return 0
    delta = cur_rss / base_rss - 1.0
    grew = cur_rss > base_rss * (1.0 + rss_tolerance)
    verdict = "FAIL" if grew else "ok"
    print(f"peak_rss_bytes  {base_rss:>14.0f}  {cur_rss:>14.0f}  "
          f"{delta:+7.1%} {verdict}")
    return 1 if grew else 0


CONFIG_KEYS = ("jobs", "scale", "seed")


def compare(baseline: dict, current: dict, tolerance: float,
            rss_tolerance: float = 0.25) -> int:
    mismatched = [key for key in CONFIG_KEYS
                  if baseline.get(key) != current.get(key)]
    if mismatched:
        for key in mismatched:
            print(f"bench_compare: {key} differs: baseline "
                  f"{baseline.get(key)}, current {current.get(key)}")
        print("bench_compare: refusing to compare runs of different "
              "configurations; rerun at the baseline's settings")
        return 2
    base = metric_map(baseline)
    cur = metric_map(current)
    failures = 0
    width = max((len(name) for name in base | cur), default=10)
    print(f"{'metric':<{width}}  {'baseline':>14}  {'current':>14}  delta")
    for name, base_metric in sorted(base.items()):
        base_ops = float(base_metric.get("ops_per_sec", 0.0))
        if name not in cur:
            print(f"{name:<{width}}  {base_ops:>14.0f}  {'MISSING':>14}  FAIL")
            failures += 1
            continue
        cur_ops = float(cur[name].get("ops_per_sec", 0.0))
        delta = (cur_ops / base_ops - 1.0) if base_ops > 0 else 0.0
        regressed = base_ops > 0 and cur_ops < base_ops * (1.0 - tolerance)
        verdict = "FAIL" if regressed else "ok"
        print(f"{name:<{width}}  {base_ops:>14.0f}  {cur_ops:>14.0f}  "
              f"{delta:+7.1%} {verdict}")
        failures += regressed
    for name in sorted(cur.keys() - base.keys()):
        print(f"{name:<{width}}  {'(new)':>14}  "
              f"{float(cur[name].get('ops_per_sec', 0.0)):>14.0f}  ok")
    failures += compare_rss(baseline, current, rss_tolerance)
    if failures:
        print(f"bench_compare: {failures} metric(s) regressed more than "
              f"{tolerance:.0%}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+",
                        help="BASELINE.json CURRENT.json, or with "
                             "--run-and-compare: BINARY BASELINE.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional ops/sec drop (default 0.10)")
    parser.add_argument("--rss-tolerance", type=float, default=0.25,
                        help="allowed fractional peak-RSS growth "
                             "(default 0.25); skipped when either report "
                             "lacks peak_rss_bytes")
    parser.add_argument("--run-and-compare", action="store_true",
                        help="first arg is a bench binary to run with "
                             "--quick --json before comparing")
    parser.add_argument("--run-args", default="--quick",
                        help="flags for the --run-and-compare binary "
                             "(default \"--quick\")")
    args = parser.parse_args()
    if len(args.paths) != 2:
        parser.error("expected exactly two positional arguments")

    if args.run_and_compare:
        binary, baseline_path = args.paths
        with tempfile.TemporaryDirectory() as tmp:
            fresh = os.path.join(tmp, "bench.json")
            result = subprocess.run(
                [binary] + shlex.split(args.run_args) + ["--json", fresh],
                stdout=subprocess.DEVNULL)
            if result.returncode != 0:
                print(f"bench_compare: {binary} exited "
                      f"{result.returncode}")
                return 2
            return compare(load_report(baseline_path), load_report(fresh),
                           args.tolerance, args.rss_tolerance)

    baseline_path, current_path = args.paths
    return compare(load_report(baseline_path), load_report(current_path),
                   args.tolerance, args.rss_tolerance)


if __name__ == "__main__":
    sys.exit(main())
