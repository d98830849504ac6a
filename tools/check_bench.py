#!/usr/bin/env python3
"""Perf-regression gate: compare smoke-run bench JSON against a baseline.

Every bench binary writes machine-readable rows via --json:

    {"benchmarks": [{"name": ..., "events_per_sec": ..., "bytes": ...}, ...]}

This script loads the committed baseline (CI gates against BENCH_pr10.json)
and one or more current result files (e.g. the CI smoke run's
BENCH_smoke_*.json), then checks every row present in BOTH sides:

  * events_per_sec may not fall below baseline * (1 - tolerance);
  * bytes (where the baseline recorded a nonzero footprint) may not grow
    above baseline * (1 + bytes-tolerance) — wire/memory accounting is
    deterministic, so this is a much tighter screw than throughput.

Absolute caps that need no baseline row: --ceiling GLOB=BYTES bounds a
row's bytes footprint, and --p99-ceiling GLOB=NS bounds its recorded
p99 per-op latency (rows without latency samples are never checked).

Rows matching an --allow glob (fnmatch) are reported but never fail the
gate — use this for rows whose smoke numbers are inherently noisy (e.g.
'*/parallel-ingest/*', which measures thread scaling on whatever cores
the CI runner happens to have).

The default throughput tolerance is deliberately generous: CI runners
are slower, noisier and differently-provisioned than the machine that
recorded the baseline, so the gate is a tripwire for order-of-magnitude
regressions (an accidental O(w) in an O(log w) path), not a benchmarking
harness. Exit status: 0 = pass, 1 = regression, 2 = usage/input error.
"""

import argparse
import fnmatch
import glob
import json
import sys


def load_rows(path):
    """Returns {name: (events_per_sec, bytes, p99_ns)} per bench JSON file.

    p99_ns is 0.0 for rows that do not record per-op latency.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name")
        if not name:
            continue
        rows[name] = (
            float(row.get("events_per_sec", 0.0)),
            float(row.get("bytes", 0.0)),
            float(row.get("p99_ns", 0.0)),
        )
    return rows


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--baseline", required=True, help="committed baseline JSON file"
    )
    parser.add_argument(
        "--current",
        required=True,
        nargs="+",
        help="current result JSON file(s); shell or literal globs accepted",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.75,
        help="allowed fractional throughput drop vs baseline (default 0.75: "
        "fail only when a row falls below 25%% of the baseline rate)",
    )
    parser.add_argument(
        "--bytes-tolerance",
        type=float,
        default=0.25,
        help="allowed fractional growth of a row's bytes footprint "
        "(default 0.25)",
    )
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        metavar="GLOB",
        help="row-name glob that is reported but never fails the gate "
        "(repeatable)",
    )
    parser.add_argument(
        "--ceiling",
        action="append",
        default=[],
        metavar="GLOB=BYTES",
        help="absolute bytes ceiling for rows matching GLOB (repeatable). "
        "Unlike --bytes-tolerance this needs no baseline row: any current "
        "row matching GLOB fails when its bytes footprint exceeds BYTES. "
        "Use for deterministic wire-volume rows (e.g. the compression "
        "channels) where a hard cap is meaningful.",
    )
    parser.add_argument(
        "--p99-ceiling",
        action="append",
        default=[],
        metavar="GLOB=NS",
        help="absolute p99 per-op latency ceiling in nanoseconds for rows "
        "matching GLOB (repeatable). Applies to current rows that record "
        "p99_ns; rows without latency samples never match.",
    )
    args = parser.parse_args()

    def parse_caps(specs, what):
        caps = []
        for spec in specs:
            glob_part, sep, num_part = spec.rpartition("=")
            try:
                if not sep or not glob_part:
                    raise ValueError("missing '='")
                caps.append((glob_part, float(num_part)))
            except ValueError:
                print(f"error: bad {what} spec {spec!r} (want GLOB=NUMBER)")
                return None
        return caps

    ceilings = parse_caps(args.ceiling, "--ceiling")
    if ceilings is None:
        return 2
    p99_ceilings = parse_caps(args.p99_ceiling, "--p99-ceiling")
    if p99_ceilings is None:
        return 2

    try:
        baseline = load_rows(args.baseline)
    except (OSError, ValueError) as e:
        print(f"error: cannot load baseline {args.baseline}: {e}")
        return 2

    current = {}
    current_files = []
    for pattern in args.current:
        expanded = sorted(glob.glob(pattern)) or [pattern]
        current_files.extend(expanded)
    for path in current_files:
        try:
            current.update(load_rows(path))
        except (OSError, ValueError) as e:
            print(f"error: cannot load current results {path}: {e}")
            return 2
    if not current:
        print("error: no current bench rows found")
        return 2

    compared = sorted(set(baseline) & set(current))
    if not compared:
        print("error: baseline and current results share no bench rows")
        return 2
    only_base = sorted(set(baseline) - set(current))
    only_cur = sorted(set(current) - set(baseline))

    failures = []
    print(
        f"{'row':44s} {'base ev/s':>12s} {'cur ev/s':>12s} {'ratio':>6s}  "
        f"verdict"
    )
    for name in compared:
        base_rate, base_bytes, _ = baseline[name]
        cur_rate, cur_bytes, _ = current[name]
        allowed = any(fnmatch.fnmatch(name, g) for g in args.allow)
        problems = []
        if base_rate > 0 and cur_rate < base_rate * (1.0 - args.tolerance):
            problems.append(
                f"rate {cur_rate:.0f} < {1.0 - args.tolerance:.2f}x baseline"
            )
        if base_bytes > 0 and cur_bytes > base_bytes * (
            1.0 + args.bytes_tolerance
        ):
            problems.append(
                f"bytes {cur_bytes:.0f} > "
                f"{1.0 + args.bytes_tolerance:.2f}x baseline {base_bytes:.0f}"
            )
        ratio = cur_rate / base_rate if base_rate > 0 else float("inf")
        if problems and allowed:
            verdict = "ALLOWED (" + "; ".join(problems) + ")"
        elif problems:
            verdict = "FAIL (" + "; ".join(problems) + ")"
            failures.append(name)
        else:
            verdict = "ok"
        print(
            f"{name:44s} {base_rate:12.0f} {cur_rate:12.0f} {ratio:6.2f}  "
            f"{verdict}"
        )

    if ceilings or p99_ceilings:
        print()
        for name in sorted(current):
            _, cur_bytes, cur_p99 = current[name]
            for glob_part, cap in ceilings:
                if not fnmatch.fnmatch(name, glob_part):
                    continue
                if cur_bytes > cap:
                    print(
                        f"{name}: bytes {cur_bytes:.0f} exceeds ceiling "
                        f"{cap:.0f} ({glob_part})"
                    )
                    failures.append(name + " [ceiling]")
                else:
                    print(
                        f"{name}: bytes {cur_bytes:.0f} within ceiling "
                        f"{cap:.0f} ({glob_part})"
                    )
            for glob_part, cap in p99_ceilings:
                if not fnmatch.fnmatch(name, glob_part) or cur_p99 <= 0:
                    continue
                if cur_p99 > cap:
                    print(
                        f"{name}: p99 {cur_p99:.0f}ns exceeds ceiling "
                        f"{cap:.0f}ns ({glob_part})"
                    )
                    failures.append(name + " [p99-ceiling]")
                else:
                    print(
                        f"{name}: p99 {cur_p99:.0f}ns within ceiling "
                        f"{cap:.0f}ns ({glob_part})"
                    )

    if only_base:
        print(f"\nnote: {len(only_base)} baseline row(s) missing from the "
              f"current run (renamed or not exercised): {', '.join(only_base)}")
    if only_cur:
        print(f"note: {len(only_cur)} new row(s) without a baseline "
              f"(will be gated once the baseline is refreshed): "
              f"{', '.join(only_cur)}")

    if failures:
        print(f"\nFAIL: {len(failures)} row(s) regressed beyond tolerance")
        return 1
    print(f"\nOK: {len(compared)} row(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
