#!/usr/bin/env python3
"""Line-coverage aggregation and floor enforcement for the dnsttl sources.

Workflow (the `coverage` CMake preset instruments with --coverage -O0):

    cmake --preset coverage
    cmake --build build-cov -j
    ctest --test-dir build-cov -L tier1
    python3 tools/coverage.py --build build-cov

The script walks the build tree for .gcda files, runs `gcov --json-format
--stdout` on each, unions the per-line execution counts across translation
units (a line is covered if ANY TU executed it), and prints a per-file
table for everything under src/.  Per-subsystem floors — chosen for the
subsystems this PR series hardens — fail the run when breached:

    src/net        the message fabric: loss, scripted outages, truncation
    src/resolver   retry/backoff/serve-stale logic
    src/cache      bounded eviction + snapshot codec (PR 10)
    src/dns        names, the shared hash table, zone and wire codec
    src/sim        event queue, timer wheel, time types and RNG streams
    src/stats      the run-length CDF every figure reads, tables, series
    src/par        shard threads, ordered results, lowest-failure rethrow
    src/analysis   the contract analyzer: lexer, index, rules, dataflow

Floors are deliberately per-subsystem, not global: a global number lets a
well-covered hot path subsidize an untested one.

Exit codes: 0 ok (or clean SKIP when the tree has no .gcda / no gcov),
1 floor breached, 2 usage/environment error.  --json writes the aggregated
per-file numbers for the CI artifact.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_FLOORS = {
    "src/net": 92.0,
    "src/resolver": 96.0,
    "src/cache": 93.0,
    "src/dns": 95.0,
    "src/sim": 96.0,
    "src/stats": 98.0,
    "src/par": 93.0,
    "src/analysis": 96.0,
}


def parse_floor(spec: str) -> tuple[str, float]:
    try:
        prefix, pct = spec.rsplit("=", 1)
        return prefix, float(pct)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"floor spec must be <path-prefix>=<percent>, got {spec!r}")


def run_gcov(gcda: Path, build_dir: Path) -> list[dict]:
    """Returns the parsed gcov JSON records for one .gcda file."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--object-directory",
         str(gcda.parent), str(gcda)],
        cwd=build_dir,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print(f"coverage: gcov failed on {gcda}: {proc.stderr.strip()}",
              file=sys.stderr)
        return []
    records = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build-cov",
                        help="instrumented build tree (default: build-cov)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--floor", action="append", type=parse_floor,
                        metavar="PREFIX=PCT", default=None,
                        help="per-subsystem line floor; repeatable "
                             "(default: src/net=92 src/resolver=96 "
                             "src/cache=93 src/dns=95 src/sim=96 "
                             "src/stats=98 src/par=93 src/analysis=96)")
    parser.add_argument("--json", default=None,
                        help="also write per-file coverage JSON here")
    args = parser.parse_args()

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent
    build_dir = Path(args.build)
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    floors = dict(args.floor) if args.floor else DEFAULT_FLOORS

    if shutil.which("gcov") is None:
        print("coverage: SKIP — no gcov on PATH")
        return 0
    if not build_dir.is_dir():
        print(f"coverage: SKIP — build tree {build_dir} does not exist "
              "(configure with: cmake --preset coverage)")
        return 0
    gcda_files = sorted(build_dir.rglob("*.gcda"))
    if not gcda_files:
        print(f"coverage: SKIP — no .gcda under {build_dir} "
              "(build with the coverage preset, then run the tests)")
        return 0

    # file (repo-relative) -> line number -> max count across TUs.
    line_counts: dict[str, dict[int, int]] = defaultdict(dict)
    for gcda in gcda_files:
        for record in run_gcov(gcda, build_dir):
            for entry in record.get("files", []):
                path = Path(entry.get("file", ""))
                if not path.is_absolute():
                    path = (build_dir / path).resolve()
                try:
                    rel = path.resolve().relative_to(root)
                except ValueError:
                    continue  # system / third-party header
                rel_str = rel.as_posix()
                if not rel_str.startswith("src/"):
                    continue
                counts = line_counts[rel_str]
                for line in entry.get("lines", []):
                    number = line.get("line_number")
                    count = line.get("count", 0)
                    if number is None:
                        continue
                    counts[number] = max(counts.get(number, 0), count)

    if not line_counts:
        print("coverage: SKIP — gcov produced no records for src/ files")
        return 0

    per_file = {}
    for rel_str in sorted(line_counts):
        counts = line_counts[rel_str]
        total = len(counts)
        covered = sum(1 for c in counts.values() if c > 0)
        per_file[rel_str] = {
            "lines": total,
            "covered": covered,
            "percent": 100.0 * covered / total if total else 100.0,
        }

    width = max(len(f) for f in per_file)
    print(f"{'file':<{width}}  covered/lines   pct")
    for rel_str, info in per_file.items():
        print(f"{rel_str:<{width}}  {info['covered']:>7}/{info['lines']:<7}"
              f"{info['percent']:6.1f}%")

    failures = []
    print()
    for prefix, floor in sorted(floors.items()):
        lines = sum(i["lines"] for f, i in per_file.items()
                    if f.startswith(prefix + "/"))
        covered = sum(i["covered"] for f, i in per_file.items()
                      if f.startswith(prefix + "/"))
        if lines == 0:
            failures.append(f"{prefix}: no coverage data (floor {floor:.0f}%)")
            continue
        pct = 100.0 * covered / lines
        verdict = "ok" if pct >= floor else "FAIL"
        print(f"{prefix}: {pct:.1f}% line coverage "
              f"(floor {floor:.0f}%) {verdict}")
        if pct < floor:
            failures.append(
                f"{prefix}: {pct:.1f}% is below the {floor:.0f}% floor")

    if args.json:
        Path(args.json).write_text(json.dumps({
            "build_dir": str(build_dir),
            "files": per_file,
            "floors": {k: v for k, v in floors.items()},
        }, indent=2) + "\n")

    if failures:
        print("\ncoverage: FAIL")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\ncoverage: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
