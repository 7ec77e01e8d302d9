#!/usr/bin/env python3
"""Build the benchmark suite from source and run one workload.

Run from the root of a mediactl checkout:

    python3 bench/suite/run.py --workload fleet-mixed --seed 1 --seconds 12 --trace 0

The suite executable is built with dune into $CARGO_TARGET_DIR (default
.bench_build) with the shared dune cache off, so the build reads and
writes nothing outside the checkout.  Sockets and span files go under
that directory too.  The executable's output is passed through; its
last line is one JSON object with exactly the keys correct, attempted,
failed and metrics: the end-to-end metrics BENCHMARK.json lists with
--trace 0, the per-layer metrics with --trace 1.  This script checks
those names and units against BENCHMARK.json before passing the
result on, and exits non-zero without a result when anything is
missing or fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    return code


def stop_group(proc):
    """Kill whatever is left of the suite's process group and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", "dune-project", "lib", os.path.join("bench", "suite", "dune")):
        if not os.path.exists(needed):
            return fail(f"{needed} not found; run from the root of a mediactl checkout", 2)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
             "./bench/suite/main.exe"],
            env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        return fail(f"build failed with exit code {build.returncode}")

    exe = os.path.join(build_dir, "default", "bench", "suite", "main.exe")
    work_dir = os.path.join(build_dir, "suite")
    cmd = [exe, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace", os.path.join(work_dir, f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    stop_group(proc)

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        return fail(f"{args.workload} printed no result (exit code {proc.returncode})")
    expected = bench["per_layer" if args.trace else "end_to_end"]
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    have = {name: m.get("unit") for name, m in got.items()}
    if want != have or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("the result's metrics do not match BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(have))}, "
                    f"unexpected {sorted(set(have) - set(want))}, "
                    f"unit mismatches {sorted(n for n in want if n in have and want[n] != have[n])}")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
