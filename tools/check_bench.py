#!/usr/bin/env python3
"""Compare a freshly produced BENCH_crypto_primitives.json against the
committed baseline and fail on latency regressions.

tools/run_benches.sh rewrites the artifact at the repo root in place, so
the previous numbers live in git history. This script diffs the working-tree
file against `git show HEAD:<file>` and flags any benchmark whose ns_per_op
got slower by more than the tolerance.

Usage:
  tools/check_bench.py [--tolerance PCT] [--baseline REF] [files...]

Throughput-style metrics (mb_per_s, items_per_s) are deliberately ignored:
they are the reciprocal view of the same samples. A benchmark present on
only one side (new or renamed) is reported as informational, never a
failure — growing the suite must not break the gate. Exit status: 0 when
every shared metric is within tolerance, 1 otherwise, 2 on usage errors.

The default tolerance is deliberately loose (35%): these are wall-clock
micro-benchmarks on shared machines and the gate is meant to catch
step-change regressions (an accidental debug build, a quadratic loop on the
hot path), not 5% noise. Tighten with --tolerance for a quiet box.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_FILES = ["BENCH_crypto_primitives.json"]


def load_committed(repo_root, ref, relpath):
    """The committed baseline, or None when the file is new at `ref`."""
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{relpath}"],
            cwd=repo_root,
            capture_output=True,
            check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None
    return json.loads(blob)


def latency_metrics(doc):
    """Flattens one artifact into {"<benchmark> ns_per_op": value}."""
    return {f"{row['name']} ns_per_op": row["ns_per_op"]
            for row in doc.get("results", [])}


def compare(relpath, fresh, baseline, tolerance):
    """Returns (regressions, lines) for one artifact."""
    lines = []
    regressions = 0
    fresh_m = latency_metrics(fresh)
    base_m = latency_metrics(baseline)
    shared = sorted(set(fresh_m) & set(base_m))
    for key in sorted(set(base_m) - set(fresh_m)):
        lines.append(f"  note: {key}: only in baseline (removed?)")
    for key in sorted(set(fresh_m) - set(base_m)):
        lines.append(f"  note: {key}: new metric, no baseline")
    for key in shared:
        old, new = base_m[key], fresh_m[key]
        if old <= 0:
            continue
        delta = (new - old) / old * 100.0
        if delta > tolerance:
            regressions += 1
            lines.append(
                f"  REGRESSION {key}: {old:g} -> {new:g} "
                f"(+{delta:.1f}% > {tolerance:g}%)"
            )
        elif abs(delta) > tolerance / 2:
            # Near the gate either way: worth a line in the log.
            lines.append(f"  note: {key}: {old:g} -> {new:g} ({delta:+.1f}%)")
    lines.insert(
        0,
        f"{relpath}: {len(shared)} metrics compared, "
        f"{regressions} beyond +{tolerance:g}%",
    )
    return regressions, lines


def main():
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json latency metrics against git baselines"
    )
    parser.add_argument("--tolerance", type=float, default=35.0,
                        help="allowed slowdown in percent (default: 35)")
    parser.add_argument("--baseline", default="HEAD",
                        help="git ref holding the baselines (default: HEAD)")
    parser.add_argument("files", nargs="*", default=None,
                        help="artifacts to check (default: "
                             "BENCH_crypto_primitives.json)")
    args = parser.parse_args()
    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")

    script_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(script_dir)
    files = args.files or DEFAULT_FILES

    total_regressions = 0
    checked = 0
    for relpath in files:
        path = os.path.join(repo_root, relpath)
        if not os.path.exists(path):
            print(f"{relpath}: missing from working tree, skipped")
            continue
        with open(path) as fh:
            fresh = json.load(fh)
        baseline = load_committed(repo_root, args.baseline, relpath)
        if baseline is None:
            print(f"{relpath}: no committed baseline at {args.baseline}, "
                  "skipped")
            continue
        regressions, lines = compare(relpath, fresh, baseline, args.tolerance)
        print("\n".join(lines))
        total_regressions += regressions
        checked += 1

    if checked == 0:
        print("check_bench: nothing to compare")
        return 0
    if total_regressions:
        print(f"check_bench: FAIL ({total_regressions} regressed metrics)")
        return 1
    print("check_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
