#!/usr/bin/env python3
"""Benchmark of the DNS TTL simulator.

Builds the runner (perfbench/CMakeLists.txt) from the repository's sources,
then measures one workload for a fixed window of wall time:

  python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

--trace 0 runs the workload again and again, alternating one process at
--jobs 1 and one at --jobs 2, and reports each end-to-end metric: the
fastest run for a time, the median for memory.  --trace 1 alternates
traced and untraced runs at --jobs 2, prints every per-layer metric the
workload has and the absent ones with their reasons, and returns the
per_layer list of BENCHMARK.json, which every workload has.  Every run's
rendered output must match the digest pinned for its seed
(perfbench/digests.json), and jobs 1 and jobs 2 must agree.  The last
stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Other modes: --compare OLD NEW (--out records: files or directories),
--pin SEEDS, --self-test.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("renumber", "centricity", "passive", "crawl")
DIGESTS = HERE / "digests.json"

MIN_PAIRS = 3          # processes of each kind, even past the window
RUN_TIMEOUT_S = 120    # one runner process
BUILD_TIMEOUT_S = 850

# Every per-layer metric of the runner, with its unit.  A traced run must
# report each one or list it as absent with a reason.  BENCHMARK.json's
# per_layer list is the part that every workload reports; the rest exist
# only where their layer runs, so they are printed and recorded, not
# returned, rather than read as 0 where the layer does not run.
LAYER_UNITS = {
    **dict.fromkeys((
        "core.env_build_s", "atlas.platform_build_s", "atlas.measure_s",
        "par.shard_busy_max_s", "crawl.engine_s", "stats.analysis_s"), "s"),
    **dict.fromkeys((
        "dns.zone_add_ns", "dns.zone_lookup_ns", "dns.encode_ns",
        "dns.decode_ns", "dns.encoded_size_ns", "dns.name_parse_ns",
        "auth.handle_query_ns", "net.query_ns", "resolver.warm_resolve_ns",
        "resolver.cold_resolve_ns", "cache.lookup_ns", "cache.insert_ns"),
        "ns"),
    **dict.fromkeys((
        "core.replicas", "atlas.vp_queries", "atlas.timeouts",
        "dns.zone_rrsets", "auth.queries", "auth.log_entries",
        "net.queries_carried", "resolver.client_queries",
        "resolver.cache_answers", "resolver.full_resolutions",
        "resolver.upstream_queries", "resolver.servfails",
        "resolver.tcp_retries", "cache.hits", "cache.misses", "cache.inserts",
        "cache.entries", "sim.events", "par.shards", "crawl.domains",
        "crawl.queries", "crawl.steps", "crawl.in_flight_high_water"),
        "count"),
    # Ratios of counts, which must repeat exactly like counts.
    "resolver.upstream_per_client": "ratio",
    "cache.hit_ratio": "ratio",
    "par.shard_imbalance": "max/mean",
}
TIME_UNITS = {"s", "ns"}
EXACT_UNITS = {"count", "ratio"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found", 2)
    return json.loads(path.read_text())


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def configured_source(cache):
    prefix = "CMAKE_HOME_DIRECTORY:INTERNAL="
    for line in cache.read_text().splitlines():
        if line.startswith(prefix):
            return Path(line[len(prefix):]).resolve()
    return None


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and configured_source(cache) != HERE:
        shutil.rmtree(bdir)  # configured for a checkout at another path
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:3])} exited {done.returncode}")
    return bdir / "perfbench"


def run_once(binary, workload, seed, jobs, trace_path=None):
    """One runner process; returns its result record (ok=False on error)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--jobs", str(jobs)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "jobs": jobs, "error": "timed out"}
    if done.returncode != 0:
        return {"ok": False, "jobs": jobs,
                "error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "jobs": jobs, "error": "no result line"}
    record["ok"] = True
    return record


def load_pins():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def layer_coverage(record):
    """How a traced record fails to account for the per-layer metrics
    (empty if every metric is measured or absent, and not both)."""
    layers, absent = set(record["layers"]), set(record["absent"])
    problems = [f"{label}: {sorted(names)}" for label, names in (
        ("neither measured nor absent", LAYER_UNITS.keys() - layers - absent),
        ("both measured and absent", layers & absent),
        ("unknown", (layers | absent) - LAYER_UNITS.keys())) if names]
    return "; ".join(problems)


def check_runs(records, workload, seed, pins):
    """Marks every record failed or not and returns the failure messages.

    A run fails if it did not finish, if its output digest differs from the
    digest pinned for (workload, seed) (for an unpinned seed, from the
    first run's), or if it is traced and does not account for every
    per-layer metric exactly once, as measured or as absent.
    """
    pinned = pins.get("digests", {}).get(workload, {}).get(str(seed))
    reference = pinned or next((r["digest"] for r in records if r["ok"]), None)
    source = "pinned" if pinned else "first run"
    failures = []
    for record in records:
        problem = None
        if not record["ok"]:
            problem = record["error"]
        elif "layers" in record and (gaps := layer_coverage(record)):
            problem = gaps
        elif record["digest"] != reference:
            problem = f"digest {record['digest']} != {source} {reference}"
        record["failed"] = problem is not None
        if problem:
            failures.append(f"jobs {record['jobs']}: {problem}")
    return failures


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values, unit):
    """The reported value, with median, quartiles and count beside it.

    A time reports the fastest run of the window.  On a shared virtual
    machine other tenants slow whole processes by up to 70% for seconds at
    a time, and how many runs they hit moves the median by 20% from one
    window to the next; the fastest run, the one no tenant slowed, moves by
    5-13%.  Memory and counts are not slowed and report the median.
    """
    if not values:
        return None
    q1, median, q3 = quartiles(values)
    return {"value": min(values) if unit in TIME_UNITS else median,
            "min": min(values), "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def tree_digest(paths):
    """sha256 over the files under @p paths (relative name + bytes)."""
    digest = hashlib.sha256()
    for base in paths:
        files = sorted(p for p in base.rglob("*") if p.is_file()) \
            if base.is_dir() else [base]
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def config_of(workload, seed, seconds, trace, records):
    """What a result must share with another to be compared with it."""
    first = next((r for r in records if r["ok"]), {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": [2] if trace else [1, 2],
        "nproc": os.cpu_count(),
        "compiler": first.get("compiler", "unknown"),
        "build_type": first.get("build_type", "unknown"),
        "bench": tree_digest([HERE / "CMakeLists.txt", *sorted(HERE.glob("*.cc")),
                              *sorted(HERE.glob("*.h"))]),
        # Recorded, never compared: the code under test.
        "commit": git_commit(),
        "source": tree_digest([ROOT / "src"]),
    }


# --------------------------------------------------------------- measuring

def measure_end_to_end(binary, workload, seed, seconds, spec, pins):
    deadline = time.monotonic() + seconds
    records = []
    while len(records) < 2 * MIN_PAIRS or time.monotonic() < deadline:
        for jobs in (1, 2):
            records.append(run_once(binary, workload, seed, jobs))
    failures = check_runs(records, workload, seed, pins)
    good = [r for r in records if r["ok"] and not r["failed"]]
    j1 = [r for r in good if r["jobs"] == 1]
    j2 = [r for r in good if r["jobs"] == 2]
    source = {
        "wall_s": [r["wall_s"] for r in j1],
        "setup_s": [r["setup_s"] for r in j1],
        "peak_rss_mb": [r["peak_rss_mb"] for r in j1],
        "wall_j2_s": [r["wall_s"] for r in j2],
        "peak_rss_j2_mb": [r["peak_rss_mb"] for r in j2],
    }
    summary = {m["name"]: summarize(source[m["name"]], m["unit"])
               for m in spec["end_to_end"]}
    return records, failures, summary


def measure_layers(binary, workload, seed, seconds, pins):
    deadline = time.monotonic() + seconds
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{workload}-seed{seed}.spans.json"
    traced, untraced = [], []
    while len(traced) < MIN_PAIRS or time.monotonic() < deadline:
        traced.append(run_once(binary, workload, seed, 2, spans_path))
        untraced.append(run_once(binary, workload, seed, 2))
    records = traced + untraced
    failures = check_runs(records, workload, seed, pins)
    good = [r for r in traced if r["ok"] and not r["failed"]]

    layers = {}
    for name, unit in LAYER_UNITS.items():
        values = [r["layers"][name] for r in good if name in r["layers"]]
        if not values:
            continue
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                failures.append(f"{name} differs between traced runs: "
                                f"{sorted(set(values))}")
        layers[name] = {"unit": unit, **summarize(values, unit)}
    untraced_wall = summarize([r["wall_s"] for r in untraced
                               if r["ok"] and not r["failed"]], "s")
    traced_wall = summarize([r["wall_s"] for r in good], "s")
    overhead = None
    if untraced_wall and traced_wall:
        overhead = traced_wall["value"] - untraced_wall["value"]
    absent = good[-1]["absent"] if good else {}
    trace = {
        "layers": layers,
        "absent": absent,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "tracing_overhead_s": overhead,
        "spans": (json.loads(spans_path.read_text())["spans"]
                  if spans_path.is_file() else []),
    }
    (trace_dir / f"{workload}-seed{seed}.trace.json").write_text(
        json.dumps(trace, indent=1) + "\n")
    return records, failures, trace


# ---------------------------------------------------------------- printing

def print_end_to_end(workload, summary, spec, attempted, failed):
    print(f"{workload}: end-to-end (value: fastest run for times, median "
          f"for memory)")
    print(f"  {'metric':<16} {'unit':<6} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'runs':>5}")
    for metric in spec["end_to_end"]:
        s = summary[metric["name"]]
        if s:
            print(f"  {metric['name']:<16} {metric['unit']:<6} "
                  f"{s['value']:>12.6g} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>5}")
    share = failed / attempted if attempted else 0.0
    print(f"  {'failed_share':<16} {'ratio':<6} {share:>12.6g}   "
          f"({failed} of {attempted} runs failed)")


def print_layers(workload, trace):
    print(f"{workload}: per-layer, traced runs at jobs 2 (value: fastest run "
          f"for times)")
    for name, s in sorted(trace["layers"].items()):
        print(f"  {name:<30} {s['unit']:<8} {s['value']:>16.6g}")
    for name, reason in sorted(trace["absent"].items()):
        print(f"  absent {name}: {reason}")
    if trace["tracing_overhead_s"] is not None:
        print(f"  tracing overhead: {trace['tracing_overhead_s']:.6f} s "
              f"(fastest traced run {trace['traced_wall_s']['value']:.6f} s, "
              f"untraced {trace['untraced_wall_s']['value']:.6f} s)")


def measure(args, spec, workload, binary, pins):
    """Measures one workload; returns (result line metrics, record)."""
    if args.trace:
        records, failures, trace = measure_layers(
            binary, workload, args.seed, args.seconds, pins)
        print_layers(workload, trace)
        metrics = {m["name"]: {"value": trace["layers"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["per_layer"] if m["name"] in trace["layers"]}
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in trace["layers"]]
        if missing and any(r["ok"] and not r["failed"] for r in records):
            failures.append(f"BENCHMARK.json per_layer metrics absent from "
                            f"this workload: {missing}")
        detail = {"per_layer": trace}
    else:
        records, failures, summary = measure_end_to_end(
            binary, workload, args.seed, args.seconds, spec, pins)
        attempted = len(records)
        failed = sum(r["failed"] for r in records)
        print_end_to_end(workload, summary, spec, attempted, failed)
        metrics = {m["name"]: {"value": summary[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"] if summary[m["name"]]}
        detail = {"end_to_end": summary}
    for failure in failures:
        print(f"  FAILED {failure}")
    failed = sum(r["failed"] for r in records)
    if failures and failed == 0:
        failed = 1  # a cross-run check failed: count it against the run set
    record = {
        "config": config_of(workload, args.seed, args.seconds, args.trace,
                            records),
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        **detail,
        "runs": [{k: r.get(k) for k in ("jobs", "ok", "failed", "wall_s",
                                          "setup_s", "peak_rss_mb", "digest")}
                 for r in records],
    }
    return metrics, record


# ------------------------------------------------------------------- modes

def load_records(path):
    """The --out records in a file, or in every *.json of a directory."""
    path = Path(path)
    records = []
    for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        data = json.loads(file.read_text())
        records.extend(data if isinstance(data, list) else [data])
    return records


def compare(old_path, new_path, spec):
    """Per-workload, per-metric verdicts for two sets of --trace 0 records
    of the same config: one record per seed on each side, the same seeds
    (ideally ten).  Each seed's new value is divided by its old one, so
    what one seed's inputs cost cancels out; the median of these ratios is
    the change, and their spread is the run-to-run noise of both sides."""
    old, new = load_records(old_path), load_records(new_path)
    shared = ("seconds", "trace", "jobs", "nproc", "compiler", "build_type",
              "bench")
    configs = {json.dumps({k: r["config"].get(k) for k in shared},
                          sort_keys=True) for r in old + new}
    seeds = [sorted((r["config"]["workload"], r["config"]["seed"])
                    for r in side) for side in (old, new)]
    if len(configs) != 1 or seeds[0] != seeds[1] or \
            len(set(seeds[0])) != len(seeds[0]) or \
            any("end_to_end" not in r for r in old + new):
        print("perfbench: refusing to compare: the records differ in "
              f"{' / '.join(shared)}, in workloads or seeds, repeat a seed, "
              f"or are traced; configs seen: {sorted(configs)}",
              file=sys.stderr)
        return 2
    names = [m["name"] for m in spec["end_to_end"]]
    for label, side in (("old", old), ("new", new)):
        print(f"{label}: {sum(r['failed'] for r in side)} of "
              f"{sum(r['attempted'] for r in side)} runs failed")
    if any(r["failed"] or any(r["end_to_end"].get(n) is None for n in names)
           for r in old + new):
        print("perfbench: refusing to compare: a record has failed runs or "
              "a metric without a value", file=sys.stderr)
        return 2

    regressions = 0
    for workload in sorted({r["config"]["workload"] for r in old}):
        by_seed = [{r["config"]["seed"]: r["end_to_end"] for r in side
                    if r["config"]["workload"] == workload}
                   for side in (old, new)]
        order = sorted(by_seed[0])
        print(f"{workload}: seeds {order}")
        print(f"  {'metric':<16} {'old median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'change':>8} {'spread':>7} "
              f"{'wins':>6}")
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [by_seed[0][s][name]["value"] for s in order]
            b = [by_seed[1][s][name]["value"] for s in order]
            ratios = [y / x for x, y in zip(a, b)]
            q1, median, q3 = quartiles(ratios)
            change = median - 1
            spread = (q3 - q1) / median
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            worse = change if lower else -change
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > metric["bound"] and wins < len(order):
                verdict = "unresolved (spread exceeds the bound)"
            else:
                verdict = "ok"
            sides = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(v))
                     for v in (a, b)]
            print(f"  {name:<16} {sides[0]:>32} {sides[1]:>32} "
                  f"{100 * change:+7.2f}% {100 * spread:6.2f}% "
                  f"{wins:>3}/{len(order):<2} bound "
                  f"{100 * metric['bound']:.0f}%  {verdict}")
    return 1 if regressions else 0


def pin(seeds, held_out, binary):
    """Runs every workload at jobs 1 and 2 per seed; writes digests.json."""
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in seeds:
            runs = [run_once(binary, workload, seed, jobs) for jobs in (1, 2)]
            bad = check_runs(runs, workload, seed, {})
            if bad:
                fail(f"cannot pin {workload} seed {seed}: {bad}")
            digests[workload][str(seed)] = runs[0]["digest"]
            print(f"{workload} seed {seed}: {runs[0]['digest']}")
    DIGESTS.write_text(json.dumps({
        "note": "FNV-1a 64 of each workload's rendered output per seed, "
                "identical at jobs 1 and 2. Re-pin only in a change that "
                "touches nothing but the benchmark.",
        "held_out_seed": held_out,
        "digests": digests,
    }, indent=1) + "\n")
    return 0


def self_test(binary):
    """The digest check passes on real output and fails on planted errors."""
    workload, seed = "crawl", 1
    pins = load_pins()
    runs = [run_once(binary, workload, seed, jobs) for jobs in (1, 2)]
    ok = not check_runs(runs, workload, seed, pins)
    planted = {"digests": {workload: {str(seed): "0" * 16}}}
    wrong_pin = bool(check_runs([dict(r) for r in runs], workload, seed, planted))
    diverged = [dict(r) for r in runs]
    diverged[1]["digest"] = "f" * 16
    wrong_jobs = bool(check_runs(diverged, workload, seed, {}))
    for name, passed in (("real output matches its pinned digest", ok),
                         ("a planted wrong digest fails the check", wrong_pin),
                         ("jobs 1 / jobs 2 divergence fails the check",
                          wrong_jobs)):
        print(f"self-test: {'PASS' if passed else 'FAIL'} {name}")
    return 0 if ok and wrong_pin and wrong_jobs else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--pin", help="comma-separated seeds to pin")
    parser.add_argument("--held-out", type=int,
                        help="with --pin: the seed kept out of tuning")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    binary = build()
    if args.pin:
        seeds = [int(s) for s in args.pin.split(",")]
        if args.held_out is not None and args.held_out not in seeds:
            seeds.append(args.held_out)
        return pin(seeds, args.held_out, binary)
    if args.self_test:
        return self_test(binary)
    if args.workload is None:
        parser.error("--workload is required")

    pins = load_pins()
    print(f"perfbench: seed {args.seed}, {args.seconds:g} s per workload, "
          f"trace {args.trace}, nproc {os.cpu_count()}; workloads: "
          f"{', '.join(WORKLOADS)} (none dropped)")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, records = {}, []
    for workload in names:
        result, record = measure(args, spec, workload, binary, pins)
        records.append(record)
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in result.items()})
    if args.out:
        Path(args.out).write_text(json.dumps(
            records[0] if len(records) == 1 else records, indent=1) + "\n")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
