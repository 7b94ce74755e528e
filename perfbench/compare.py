#!/usr/bin/env python3
"""Compare untraced benchmark records of two commits.

    python3 perfbench/compare.py --base b1.json b2.json ... \
        --change c1.json c2.json ...

Each file is a record written by `run.py --out` for one workload.  Runs are
paired by position (base[i] with change[i]); make them in alternating order.
For every end-to-end metric it prints each side's median and quartiles, how
many pairs the change won, and a verdict:

  gain        the change won at least nine tenths of the pairs and the
              medians differ by more than the base's quartile spread
  worse       the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the base's spread is wider than the bound and the change did
              not win every pair
  same        otherwise

Records whose kernel backends, workloads or pass counts differ are refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_comparable(records):
    """Raise ValueError unless all records share backend, workload and
    pass count."""
    for key in ("kernel_backend", "workload", "passes"):
        seen = {r["provenance"][key] for r in records}
        if len(seen) > 1:
            raise ValueError("records differ in %s: %s" % (
                key, ", ".join(sorted(map(str, seen)))))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, lower_is_better, bound):
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    pairs = min(len(base), len(change))
    worse_by = sign * (cmed - bmed) / bmed
    if wins >= 0.9 * pairs and abs(cmed - bmed) > b3 - b1 and worse_by < 0:
        return "gain", wins
    if worse_by > bound:
        return "worse", wins
    if (b3 - b1) / bmed > bound and wins < pairs:
        return "unresolved", wins
    return "same", wins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    base = [load(p) for p in args.base]
    change = [load(p) for p in args.change]
    try:
        check_comparable(base + change)
    except ValueError as exc:
        print("compare: refusing: %s" % exc, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]
    print("%-14s %28s %28s %6s  %s" % ("metric", "base median [q1, q3]",
                                       "change median [q1, q3]", "wins",
                                       "verdict"))
    for m in spec:
        name = m["name"]
        b = [r["end_to_end"][name] for r in base]
        c = [r["end_to_end"][name] for r in change]
        what, wins = verdict(b, c, m["better"] == "lower", m["bound"])
        bq, cq = quartiles(b), quartiles(c)
        print("%-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %3d/%-2d  %s"
              % (name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], wins,
                 min(len(b), len(c)), what))
    return 0


if __name__ == "__main__":
    sys.exit(main())
