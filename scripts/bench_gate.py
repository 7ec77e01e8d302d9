#!/usr/bin/env python3
"""CI gate over the lint runtime experiment (E18):

  bench_gate.py --fresh BENCH_lint.json --baseline lint-baseline.json

The tree must lint clean, the whole-tree callgraph analysis must stay
within 2x the committed wall time, and the run must scan every .ml file
git tracks outside the lint fixtures.  It prints what it measured and
exits non-zero on any failure.

Throughput, allocation and pause are judged by the benchmark suite
(bench/suite), not here.
"""

import argparse
import json
import subprocess
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


# The seeded-violation corpus, which the whole-tree lint run skips.
LINT_FIXTURES = "test/lint_fixtures/"


def tracked_ml_files():
    """The number of .ml files git tracks outside the lint fixtures:
    what a whole-tree lint run must scan."""
    out = subprocess.run(["git", "ls-files", "*.ml"], capture_output=True, text=True,
                         check=True).stdout
    return sum(1 for path in out.splitlines() if not path.startswith(LINT_FIXTURES))


def gate_lint(fresh, base):
    """The tree must lint clean and the whole-tree callgraph analysis
    must stay cheap enough to run on every push."""
    ok = True
    if fresh["errors"] != 0:
        print(f"FAIL: {fresh['errors']} unwaived error-severity lint finding(s)")
        ok = False
    else:
        print(f"lint clean: 0 errors, {fresh['warnings']} warning(s), "
              f"{fresh['allowlisted']} allowlisted over {fresh['files']} files")
    # Runtime gate: 2x the committed baseline.  The analysis is pure
    # CPU (parse + callgraph + walks), so the slack is generous for
    # shared runners without hiding an algorithmic blow-up.
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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True, help="freshly generated BENCH_lint.json")
    ap.add_argument("--baseline", required=True, help="committed BENCH_lint.json")
    args = ap.parse_args()
    ok = gate_lint(load(args.fresh), load(args.baseline))
    print(f"gate lint: {'OK' if ok else 'FAILED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
