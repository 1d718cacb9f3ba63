#!/usr/bin/env python3
"""Bench regression checker over BENCH_*.json records.

Compares one metric of freshly produced bench JSON files against
checked-in baselines (bench/baselines/BENCH_<name>.json) and fails when
a bench falls below --min-ratio (default 0.75, i.e. a >25% regression)
of its baseline value.

The direction comes from the metric name. Latency-style metrics are
lower-is-better: names ending in _seconds, _ms, _us, cpu_time or
real_time, and names starting with slowdown. They are compared as
baseline/current. Every other metric (throughput, speedups, recall and
the 0/1 gate flags such as p99_within_deadline) is higher-is-better and
compared as current/baseline.

Understands both JSON shapes the repo emits:
  * Google Benchmark output (micro benches): {"benchmarks": [{"name":
    ..., "items_per_second": ...}]} — the metric is a top-level field of
    each benchmark entry.
  * bench/harness.h records (table benches): {"records": [{"dataset":
    ..., "system": ..., "extra": {...}}]} — the metric is looked up in
    "extra", and entries are keyed "<dataset>/<system>".

Benches present in only one of the two files are reported but do not
fail the check (benches come and go). A gate that compares nothing is
an error, so CI cannot silently skip a whole suite: a missing baseline
FILE, a baseline that carries no value for the metric, and a current
file that has the metric for none of the baseline's benches all fail.

Usage:
  tools/compare_bench_json.py --baseline-dir bench/baselines \
      [--metric items_per_second] [--min-ratio 0.75] current.json...

Absolute throughput is machine-dependent: compare runs from the same
machine class (the seeded baselines come from the CI runner size), or
track the machine-independent ratio metrics (speedup_vs_operator_tree,
speedup_vs_t1) which transfer across hosts.
"""

import argparse
import json
import os
import sys

LOWER_IS_BETTER_SUFFIXES = ("_seconds", "_ms", "_us", "cpu_time", "real_time")


def lower_is_better(metric):
    """True for latency-style metrics (see the module docstring)."""
    return (metric.endswith(LOWER_IS_BETTER_SUFFIXES)
            or metric.startswith("slowdown"))


def extract_metrics(doc, metric):
    """Returns {bench_key: metric_value} for either JSON shape."""
    out = {}
    if isinstance(doc.get("benchmarks"), list):  # Google Benchmark format
        for entry in doc["benchmarks"]:
            name = entry.get("name")
            if name is None or entry.get("run_type") == "aggregate":
                continue
            value = entry.get(metric)
            if isinstance(value, (int, float)):
                out[name] = float(value)
    if isinstance(doc.get("records"), list):  # bench/harness.h format
        for record in doc["records"]:
            key = "%s/%s" % (record.get("dataset", "?"), record.get("system", "?"))
            value = (record.get("extra") or {}).get(metric)
            if isinstance(value, (int, float)):
                out[key] = float(value)
    return out


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", nargs="+", help="freshly produced BENCH_*.json files")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding the checked-in baselines")
    parser.add_argument("--metric", default="items_per_second",
                        help="metric field to compare (top-level for Google "
                             "Benchmark JSON, extra.<metric> for harness JSON)")
    parser.add_argument("--min-ratio", type=float, default=0.75,
                        help="fail when current/baseline falls below this")
    args = parser.parse_args()
    lower = lower_is_better(args.metric)
    direction = "lower is better" if lower else "higher is better"

    failures = 0
    compared = 0
    for current_path in args.current:
        baseline_path = os.path.join(args.baseline_dir,
                                     os.path.basename(current_path))
        if not os.path.exists(baseline_path):
            print("ERROR: no baseline %s for %s" % (baseline_path, current_path))
            failures += 1
            continue
        current = extract_metrics(load(current_path), args.metric)
        baseline = extract_metrics(load(baseline_path), args.metric)
        if not baseline:
            print("ERROR: baseline %s carries no '%s' values"
                  % (baseline_path, args.metric))
            failures += 1
            continue

        print("== %s (metric: %s, %s, min ratio %.2f)"
              % (os.path.basename(current_path), args.metric, direction,
                 args.min_ratio))
        file_compared = 0
        for key in sorted(baseline):
            if key not in current:
                print("   %-48s baseline-only (skipped)" % key)
                continue
            base, cur = baseline[key], current[key]
            if base <= 0:
                continue
            if lower:
                ratio = base / cur if cur > 0 else float("inf")
            else:
                ratio = cur / base
            file_compared += 1
            verdict = "ok"
            if ratio < args.min_ratio:
                verdict = "REGRESSION"
                failures += 1
            print("   %-48s %12.1f -> %12.1f  (%.2fx) %s"
                  % (key, base, cur, ratio, verdict))
        for key in sorted(set(current) - set(baseline)):
            print("   %-48s new bench (no baseline yet)" % key)
        if file_compared == 0:
            print("ERROR: %s compared no benches on '%s'"
                  % (current_path, args.metric))
            failures += 1
        compared += file_compared

    if failures:
        print("FAIL: %d regression(s)/error(s) across %d compared benches"
              % (failures, compared))
        return 1
    print("OK: %d benches within %.0f%% of baseline"
          % (compared, 100 * args.min_ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
