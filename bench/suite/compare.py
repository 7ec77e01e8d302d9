#!/usr/bin/env python3
"""Compare two sets of benchmark-suite runs: the parent's and a change's.

    python3 bench/suite/compare.py --parent parent/*.out --change change/*.out

Each file is the standard output of run.py or main.exe --json; every
line that is a suite record ({"bench": "mediactl-suite", ...}) counts as
one run.  For each end-to-end metric the report has one row per
workload with each side's median and quartiles, and a verdict:

  gain        at least 10 pairs that alternate which side ran first, the
              change wins at least 9 in 10 of them (ties count for
              neither side), and the medians differ by more than the
              parent's own interquartile range
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  either side's interquartile range exceeds the bound, so
              "unchanged" cannot be told apart from noise (unless every
              change run reads better than every parent run)
  unchanged   none of the above

Pairs are the i-th runs of each side in start order.  The report also
flags a rise in the failed share (failed / attempted), any workload and
seed whose digest differs between the sides — a behaviour change, not
a speed change — and runs that marked themselves unresolved (check-par
on a host without two usable domains).  The exit code is 1 when any
metric regressed, the failed share rose, or a digest changed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    runs = defaultdict(list)
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith('{"bench": "mediactl-suite"'):
                    continue
                rec = json.loads(line)
                runs[rec["workload"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["started"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def alternating(parent_runs, change_runs):
    """Whether the i-th pairs alternate which side ran first."""
    firsts = [p["started"] < c["started"] for p, c in zip(parent_runs, change_runs)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def verdict(parent, change, direction, bound, alternate):
    """Classify one metric on one workload; returns (verdict, wins, pairs)."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    scale = abs(pmed) or 1.0
    if (alternate and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(cmed - pmed) > (pq3 - pq1) and better(cmed, pmed, direction)):
        return "gain", wins, len(pairs)
    worse_by = (cmed - pmed) / scale if direction == "lower" else (pmed - cmed) / scale
    if worse_by > bound:
        return "regression", wins, len(pairs)
    spread = max((pq3 - pq1) / scale, (cq3 - cq1) / (abs(cmed) or 1.0))
    separated = all(better(c, p, direction) for c in change for p in parent)
    if spread > bound and not separated:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--per-layer", action="store_true",
                        help="also list per-layer medians (no bounds, no verdicts)")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    # the benchmark's workloads first, then any other suite workload
    # (check-par) that both sides ran
    order = [w["name"] for w in bench["workloads"]]
    workloads = sorted(set(parent) & set(change),
                       key=lambda w: (order.index(w) if w in order else len(order), w))
    if not workloads:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2

    bad = False
    for metric in bench["end_to_end"]:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        print(f"\n{name} ({metric['unit']}, {direction} is better, bound {bound:.0%})")
        print(f"  {'workload':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'delta':>8} {'wins':>7}  verdict")
        for w in workloads:
            p = [r["end_to_end"][name]["value"] for r in parent[w]]
            c = [r["end_to_end"][name]["value"] for r in change[w]]
            v, wins, pairs = verdict(p, c, direction, bound, alternating(parent[w], change[w]))
            bad |= v == "regression"
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            delta = (cmed - pmed) / (abs(pmed) or 1.0)
            print(f"  {w:<12} {pmed:>12.4g} [{pq1:.4g}, {pq3:.4g}]".ljust(49)
                  + f" {cmed:>12.4g} [{cq1:.4g}, {cq3:.4g}]".ljust(35)
                  + f" {delta:>+8.1%} {wins:>3}/{pairs:<3}  {v}")

    print("\ncorrectness")
    for w in workloads:
        share = {side: sum(r["failed"] for r in runs[w]) / max(1, sum(r["attempted"] for r in runs[w]))
                 for side, runs in (("parent", parent), ("change", change))}
        rose = share["change"] > share["parent"]
        bad |= rose
        digests = defaultdict(dict)
        for side, runs in (("parent", parent), ("change", change)):
            for r in runs[w]:
                digests[r["seed"]][side] = r["digest"]
        moved = sorted(s for s, d in digests.items() if len(set(d.values())) > 1 and len(d) == 2)
        bad |= bool(moved)
        unresolved = sorted({n for runs in (parent, change) for r in runs[w] for n in r["notes"]
                             if n.startswith("unresolved")})
        print(f"  {w:<12} failed share {share['parent']:.4%} -> {share['change']:.4%}"
              f"{'  ROSE' if rose else ''}; "
              + (f"digest changed for seed(s) {moved}" if moved else "digests agree on shared seeds"))
        for n in unresolved:
            print(f"  {'':<12} {n}")

    if args.per_layer:
        print("\nper-layer medians (parent -> change)")
        for w in workloads:
            names = sorted({n for r in parent[w] + change[w] for n in r["per_layer"]})
            for n in names:
                p = [r["per_layer"][n]["value"] for r in parent[w] if n in r["per_layer"]]
                c = [r["per_layer"][n]["value"] for r in change[w] if n in r["per_layer"]]
                if p and c and (any(p) or any(c)):
                    print(f"  {w:<12} {n:<34} {statistics.median(p):>14.6g} -> {statistics.median(c):<14.6g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
