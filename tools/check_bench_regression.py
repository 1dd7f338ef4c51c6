#!/usr/bin/env python3
"""Perf-regression smoke over the repo's JSON-lines bench format.

Compares a fresh bench run against a committed baseline (BENCH_*.json) and
fails when a gated metric regresses by more than the threshold (default
30%). Rows are matched by their identity fields (every field that is not a
measurement); rows present on only one side are reported but never fail
the check, so bench sweeps can grow without breaking CI.

By default only RATIO metrics are gated (speedup_vs_float_block,
speedup_vs_per_id_scalar, speedup_restore_vs_build): ratios compare two
code paths measured on the same machine in the same process, so they
transfer from the baseline machine to a CI runner. Absolute metrics
(mcand_per_sec, qps, ns_per_distance, latency percentiles) are
machine-dependent — gate them with --all-metrics only when the fresh run
and the baseline come from the same hardware.

Usage:
  check_bench_regression.py BASELINE FRESH [--threshold 0.30] [--all-metrics]

Exit status: 0 = no gated regressions, 1 = regression, 2 = usage/parse.
"""

import argparse
import json
import sys

# metric name -> direction ("higher" is better / "lower" is better).
RATIO_METRICS = {
    "speedup_vs_float_block": "higher",
    "speedup_vs_per_id_scalar": "higher",
    "speedup_restore_vs_build": "higher",
    "speedup_vs_scalar_single": "higher",
    "speedup_pushdown_vs_postfilter": "higher",
    "wall_vs_two_sequential": "lower",
}
ABSOLUTE_METRICS = {
    "mcand_per_sec": "higher",
    "qps": "higher",
    "ns_per_distance": "lower",
    "ns_per_op": "lower",
    "ns_per_signature": "lower",
    "p50_us": "lower",
    "save_seconds": "lower",
    "restore_seconds": "lower",
    "restore_mmap_seconds": "lower",
}
# Measurements that are context, not gates: tail percentiles flap on
# shared runners, build/wall seconds fold dataset-generation noise in, and
# the rest are descriptive counters.
UNGATED = {
    "p95_us",
    "p99_us",
    "p99_vs_read_only",
    "build_seconds",
    "wall_seconds",
    "writer_ops",
    "writer_ops_per_sec",
    "avg_output",
    "pct_linear_shards",
    "hash_us_per_query",
    "hash_pct",
    "borderline_pct",
    "queries",
    "snapshot_bytes",
    "qps_pushdown",
    "qps_postfilter",
    "avg_results_per_query",
}


def load_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{line_no}: bad JSON row: {e}")
    return rows


def row_key(row, measured):
    ignore = set(measured) | UNGATED
    return tuple(sorted((k, v) for k, v in row.items() if k not in ignore))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max allowed fractional regression (default 0.30)")
    parser.add_argument("--all-metrics", action="store_true",
                        help="also gate machine-dependent absolute metrics")
    args = parser.parse_args()

    metrics = dict(RATIO_METRICS)
    if args.all_metrics:
        metrics.update(ABSOLUTE_METRICS)
    measured = set(RATIO_METRICS) | set(ABSOLUTE_METRICS)

    baseline = {}
    for row in load_rows(args.baseline):
        baseline[row_key(row, measured)] = row

    regressions = []
    compared = 0
    unmatched = 0
    for row in load_rows(args.fresh):
        key = row_key(row, measured)
        base = baseline.pop(key, None)
        if base is None:
            unmatched += 1
            continue
        for name, direction in metrics.items():
            if name not in row or name not in base:
                continue
            new, old = float(row[name]), float(base[name])
            if old <= 0:
                continue
            change = (new - old) / old
            if direction == "lower":
                change = -change
            compared += 1
            if change < -args.threshold:
                regressions.append((key, name, old, new, change))

    for key, name, old, new, change in regressions:
        ident = " ".join(f"{k}={v}" for k, v in key)
        print(f"REGRESSION {name}: {old:g} -> {new:g} ({change:+.0%}) [{ident}]")
    if unmatched or baseline:
        print(f"note: {unmatched} fresh row(s) without a baseline, "
              f"{len(baseline)} baseline row(s) not reproduced (not gated)")
    print(f"checked {compared} metric value(s) at threshold "
          f"{args.threshold:.0%}: {len(regressions)} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
