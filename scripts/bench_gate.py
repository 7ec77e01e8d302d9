#!/usr/bin/env python3
"""CI regression gates over the committed bench baselines.

One gate per bench artifact family:

  bench_gate.py --gate mc    --fresh BENCH_mc.json    --baseline bench-baseline.json
  bench_gate.py --gate fleet --fresh BENCH_fleet.json --baseline fleet-baseline.json
  bench_gate.py --gate churn --fresh BENCH_churn.json --baseline churn-baseline.json
  bench_gate.py --gate conf  --fresh BENCH_conf.json  --baseline conf-baseline.json
  bench_gate.py --gate lint  --fresh BENCH_lint.json  --baseline lint-baseline.json

Each gate prints what it measured and exits non-zero on the first
regression class it finds.  Thresholds carry generous slack for runner
variance: correctness properties (determinism, verdict agreement) are
exact, throughput gates allow 25% slowdown against the committed
baseline, allocation and pause gates allow more because Gc deltas are
quantized and shared runners stall unpredictably.
"""

import argparse
import json
import subprocess
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def gate_mc(fresh, base):
    """Model-checker bench (E10): verdict agreement + packed time."""
    ok = True
    ft, bt = fresh["totals"], base["totals"]
    ratio = ft["packed_s"] / bt["packed_s"]
    print(f"packed_s: fresh {ft['packed_s']:.2f}s vs committed {bt['packed_s']:.2f}s (x{ratio:.2f})")
    if not ft["all_agree"]:
        print("FAIL: jobs:1 and jobs:4 runs disagree")
        ok = False
    if not ft["all_passed"]:
        print("FAIL: a path model failed its obligation")
        ok = False
    if ratio > 1.25:
        print("FAIL: packed_s regressed more than 25% against the committed baseline")
        ok = False
    return ok


def gate_fleet(fresh, base):
    """Fleet bench (E12/E15): determinism, kernel, throughput, allocation."""
    ok = True
    if not fresh["fleet"]["deterministic"]:
        print("FAIL: per-session fleet results differ across job counts")
        ok = False
    if not fresh["kernel"]["agree"]:
        print("FAIL: timer wheel and heap disagree on the E9 kernel")
        ok = False
    if fresh["kernel"]["wheel_speedup"] < 0.90:
        print(f"FAIL: timer wheel more than 10% slower than the heap "
              f"(speedup {fresh['kernel']['wheel_speedup']:.2f})")
        ok = False
    # Throughput gate: jobs-1 rows against the committed baseline, with
    # 25% slack for runner variance.
    f1 = next(r for r in fresh["fleet"]["rows"] if r["jobs"] == 1)
    b1 = next(r for r in base["fleet"]["rows"] if r["jobs"] == 1)
    ratio = f1["sessions_per_s"] / b1["sessions_per_s"]
    print(f"sessions/s (jobs 1): fresh {f1['sessions_per_s']:.0f} vs committed "
          f"{b1['sessions_per_s']:.0f} (x{ratio:.2f})")
    if ratio < 0.75:
        print("FAIL: sessions/sec regressed more than 25% against the committed baseline")
        ok = False
    ev_ratio = f1["events_per_s"] / b1["events_per_s"]
    print(f"events/s (jobs 1): fresh {f1['events_per_s']:.0f} vs committed "
          f"{b1['events_per_s']:.0f} (x{ev_ratio:.2f})")
    if ev_ratio < 0.75:
        print("FAIL: events/sec regressed more than 25% against the committed baseline")
        ok = False
    # Allocation gate: minor words/event on the jobs-1 run.  Gc deltas
    # are quantized to the minor-heap size, hence the 2x slack.
    if "alloc" in base:
        aratio = fresh["alloc"]["minor_words_per_event"] / base["alloc"]["minor_words_per_event"]
        print(f"minor words/event (jobs 1): fresh {fresh['alloc']['minor_words_per_event']:.1f} "
              f"vs committed {base['alloc']['minor_words_per_event']:.1f} (x{aratio:.2f})")
        if aratio > 2.0:
            print("FAIL: allocation per event regressed more than 2x against the committed baseline")
            ok = False
    else:
        print("no alloc section in the committed baseline; skipping the allocation gate")
    rows = {r["jobs"]: r for r in fresh["fleet"]["rows"]}
    if 4 in rows:
        print(f"events/s scaling jobs 1 -> 4: x{rows[4]['events_per_s'] / f1['events_per_s']:.2f} "
              f"on {fresh['cores']} core(s)")
    return ok


def gate_churn(fresh, base):
    """Churn bench (E16): digest stability across jobs, throughput, pauses."""
    ok = True
    if not fresh["deterministic"]:
        print("FAIL: churn digests differ across job counts")
        ok = False
    # Per-population digest check, belt-and-braces over the aggregate
    # flag: every row of a population must carry the same digest.
    by_pop = {}
    for r in fresh["rows"]:
        by_pop.setdefault(r["population"], set()).add(r["digest"])
    for pop, digests in sorted(by_pop.items()):
        if len(digests) != 1:
            print(f"FAIL: population {pop} digests differ across jobs: {sorted(digests)}")
            ok = False
        else:
            print(f"population {pop}: digest {next(iter(digests))[:12]} stable across jobs")
    # The sweep is seeded, so a cell's digest must also equal the
    # committed one: "stable across jobs" alone would pass a change to
    # the rendered trace bytes that moves every job count together.
    if (fresh.get("scenario"), fresh.get("mean_holding_ms")) != \
            (base.get("scenario"), base.get("mean_holding_ms")):
        print("note: scenario or mean holding time changed; skipping the committed-digest check")
    else:
        committed = {(r["population"], r["duration_ms"]): r["digest"] for r in base["rows"]}
        for r in fresh["rows"]:
            key = (r["population"], r["duration_ms"])
            if key not in committed:
                print(f"note: population {key[0]} over {key[1]} ms has no committed row")
            elif r["digest"] != committed[key]:
                print(f"FAIL: population {key[0]} jobs {r['jobs']} digest {r['digest']} differs "
                      f"from the committed {committed[key]}")
                ok = False
        print("committed digests checked for every population with a matching row")
    # Throughput gate on the largest jobs-1 cell — the row most exposed
    # to major-GC marking of the big live heap, which is what E16
    # measures.  25% slack for runner variance.
    def biggest_j1(doc):
        rows = [r for r in doc["rows"] if r["jobs"] == 1]
        return max(rows, key=lambda r: r["population"])
    f1, b1 = biggest_j1(fresh), biggest_j1(base)
    if f1["population"] != b1["population"]:
        print(f"note: largest jobs-1 population changed "
              f"({b1['population']} -> {f1['population']}); comparing anyway")
    ratio = f1["events_per_s"] / b1["events_per_s"]
    print(f"events/s (pop {f1['population']}, jobs 1): fresh {f1['events_per_s']:.0f} "
          f"vs committed {b1['events_per_s']:.0f} (x{ratio:.2f})")
    if ratio < 0.75:
        print("FAIL: churn events/sec regressed more than 25% against the committed baseline")
        ok = False
    # Pause gate: the max observed batch-pause proxy across all rows.
    # Shared runners stall for tens of milliseconds on their own, so
    # the floor is a flat 250 ms and the baseline multiplier is 5x.
    fresh_pause = max(r["max_pause_ms"] for r in fresh["rows"])
    base_pause = max(r["max_pause_ms"] for r in base["rows"])
    limit = max(250.0, 5.0 * base_pause)
    print(f"max pause proxy: fresh {fresh_pause:.1f} ms vs committed {base_pause:.1f} ms "
          f"(limit {limit:.0f} ms)")
    if fresh_pause > limit:
        print("FAIL: max GC-pause proxy exceeded the gate")
        ok = False
    peak = max(r["peak_resident"] for r in fresh["rows"])
    print(f"peak resident sessions: {peak}")
    return ok


def gate_conf(fresh, base):
    """N-party conference bench (E17): exact 3-party state counts,
    jobs:1/jobs:N agreement, fleet + churn digest stability."""
    ok = True
    # The star encoding is canonical, so the reachable-space size of
    # each committed 3-party configuration is an exact invariant: any
    # drift means the model (or the codec) changed semantics.
    fresh_rows = {r["config"]: r for r in fresh["checks"]}
    for br in base["checks"]:
        fr = fresh_rows.get(br["config"])
        if fr is None:
            print(f"FAIL: config {br['config']} missing from the fresh run")
            ok = False
        elif (fr["states"], fr["transitions"]) != (br["states"], br["transitions"]):
            print(f"FAIL: {br['config']} drifted: "
                  f"{br['states']}/{br['transitions']} -> {fr['states']}/{fr['transitions']}")
            ok = False
        else:
            print(f"{br['config']}: {fr['states']} states / {fr['transitions']} transitions (exact)")
    ft, bt = fresh["check_totals"], base["check_totals"]
    if not ft["all_agree"]:
        print("FAIL: jobs:1 and parallel 3-party runs disagree")
        ok = False
    if not ft["all_passed"]:
        print("FAIL: a 3-party configuration failed its obligation")
        ok = False
    ratio = ft["seq_s"] / bt["seq_s"]
    print(f"check seq_s: fresh {ft['seq_s']:.2f}s vs committed {bt['seq_s']:.2f}s (x{ratio:.2f})")
    if ratio > 1.25:
        print("FAIL: 3-party check time regressed more than 25% against the committed baseline")
        ok = False
    for section in ("fleet", "churn"):
        doc = fresh[section]
        digests = {r["digest"] for r in doc["rows"]}
        if not doc["deterministic"] or len(digests) != 1:
            print(f"FAIL: conference {section} digests differ across jobs: {sorted(digests)}")
            ok = False
        else:
            print(f"conference {section}: digest {next(iter(digests))[:12]} stable across jobs")
    fl = fresh["fleet"]
    bad = [r for r in fl["rows"] if r["conformant"] != fl["sessions"] or r["satisfied"] != fl["sessions"]]
    if bad:
        print(f"FAIL: conference fleet rows not fully conformant/satisfied: {bad}")
        ok = False
    else:
        print(f"conference fleet: {fl['sessions']}/{fl['sessions']} conformant and satisfied on every row")
    return ok


# The seeded-violation corpus, which the whole-tree lint run skips.
LINT_FIXTURES = "test/lint_fixtures/"


def tracked_ml_files():
    """The number of .ml files git tracks outside the lint fixtures:
    what a whole-tree lint run must scan."""
    out = subprocess.run(["git", "ls-files", "*.ml"], capture_output=True, text=True,
                         check=True).stdout
    return sum(1 for path in out.splitlines() if not path.startswith(LINT_FIXTURES))


def gate_lint(fresh, base):
    """Lint bench (E18): the tree must lint clean and the whole-tree
    callgraph analysis must stay cheap enough to run on every push."""
    ok = True
    if fresh["errors"] != 0:
        print(f"FAIL: {fresh['errors']} unwaived error-severity lint finding(s)")
        ok = False
    else:
        print(f"lint clean: 0 errors, {fresh['warnings']} warning(s), "
              f"{fresh['allowlisted']} allowlisted over {fresh['files']} files")
    # Runtime gate: 2x the committed baseline.  The analysis is pure
    # CPU (parse + callgraph + walks), so the slack is tighter than the
    # throughput gates but still generous for shared runners.
    ratio = fresh["wall_s"] / base["wall_s"]
    print(f"wall_s: fresh {fresh['wall_s']:.3f}s vs committed {base['wall_s']:.3f}s "
          f"(x{ratio:.2f})")
    if ratio > 2.0:
        print("FAIL: lint runtime regressed more than 2x against the committed baseline")
        ok = False
    # Coverage gate: against the tree itself, not the committed count,
    # so that deleting a source file does not fail it.
    tracked = tracked_ml_files()
    print(f"scanned {fresh['files']} files; the tree tracks {tracked} .ml files outside "
          f"{LINT_FIXTURES}")
    if fresh["files"] < tracked:
        print("FAIL: the linter scanned fewer files than the tree tracks; "
              "the scanner lost part of the tree")
        ok = False
    return ok


GATES = {"mc": gate_mc, "fleet": gate_fleet, "churn": gate_churn, "conf": gate_conf,
         "lint": gate_lint}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gate", required=True, choices=sorted(GATES))
    ap.add_argument("--fresh", required=True, help="freshly generated bench JSON")
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    args = ap.parse_args()
    ok = GATES[args.gate](load(args.fresh), load(args.baseline))
    print(f"gate {args.gate}: {'OK' if ok else 'FAILED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
