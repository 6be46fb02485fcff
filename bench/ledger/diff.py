#!/usr/bin/env python3
"""Compare two hp-ledger run files (written by run.py).

Usage: diff.py A.json B.json [--benchmark BENCHMARK.json]

A is the baseline (the parent commit, or the first of two sets), B the
candidate.  For every workload and every end-to-end metric in
BENCHMARK.json the script prints one verdict, one row per workload:

  better      B's median is better than A's by more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  the run-to-run spread (IQR / median, either side) is wider
              than the bound, and B's runs do not all beat A's runs
  same        within the bound

The bound is the metric's `bound` in BENCHMARK.json (a share of A's
median).  Deterministic outcome counts and report digests must match
exactly between runs of one seed; every difference is flagged.

Exits 1 on any `worse` verdict or any count/digest mismatch, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(m: dict) -> float:
    if m.get("n", 1) <= 1 or not m["value"]:
        return 0.0
    return (m["q3"] - m["q1"]) / abs(m["value"])


def all_runs_better(a: dict, b: dict, lower_is_better: bool) -> bool:
    """Every run of B beats every run of A (needs min/max of both)."""
    if not all(k in m for m in (a, b) for k in ("min", "max")):
        return False
    if lower_is_better:
        return b["max"] < a["min"]
    return b["min"] > a["max"]


def verdict(a: dict, b: dict, spec: dict) -> tuple[str, float]:
    lower = spec["better"] == "lower"
    base = a["value"]
    change = (b["value"] - base) / base if base else 0.0
    worse_by = change if lower else -change
    bound = spec["bound"]
    if max(spread(a), spread(b)) > bound:
        return ("better" if all_runs_better(a, b, lower) else "unresolved",
                change)
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "same", change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    for key in sorted(set(a.get("env", {})) | set(b.get("env", {}))):
        va, vb = a.get("env", {}).get(key), b.get("env", {}).get(key)
        if va != vb:
            print(f"env {key}: {va} -> {vb}")
    if a.get("seed") != b.get("seed"):
        print(f"note: seeds differ ({a.get('seed')} vs {b.get('seed')}); "
              "counts and digests are not comparable")

    width = max(len(w) for w in a["workloads"]) + 2
    print("workload".ljust(width)
          + "".join(m["name"].ljust(24) for m in metrics))
    failed = False
    mismatches = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            print(f"{workload.ljust(width)}missing from {args.b}")
            failed = True
            continue
        row = workload.ljust(width)
        for m in metrics:
            ma = wa["end_to_end"].get(m["name"])
            mb = wb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                row += "missing".ljust(24)
                failed = True
                continue
            word, change = verdict(ma, mb, m)
            failed = failed or word == "worse"
            row += f"{word} {change:+.1%}".ljust(24)
        print(row)
        for name in sorted(set(wa["counts"]) | set(wb["counts"])):
            ca, cb = wa["counts"].get(name), wb["counts"].get(name)
            if ca != cb:
                mismatches.append(f"{workload} count.{name}: {ca} -> {cb}")
        if wa["digest"] != wb["digest"]:
            mismatches.append(
                f"{workload} digest: {wa['digest']} -> {wb['digest']}")
    for line in mismatches:
        print("MISMATCH", line)
    if not mismatches:
        print("deterministic counts and digests: identical")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
