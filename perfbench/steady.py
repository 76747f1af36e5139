#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seed-base 100] \
        [--workload NAME ...] [--seconds S] [--json FILE]

Runs from the repository root (found next to this file), with the command
of BENCHMARK.json and `--trace 0`, one seed per run (seed-base, seed-base+1,
...). For each workload and metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median. A spread at most a third of
the bound is `steady`, at most the bound `within`, above it `WIDE`. The
spread of `setup_s` is reported but not judged. It also checks that every
run was correct and that the share of failed operations is the same in
every run of a workload.

Two effects of a small shared host are handled in the benchmark itself,
not here. Slow host phases of a second or more land on a few runs, so the
quartiles (not the extremes) are what is judged, and `setup_s` is a median
of several set-ups inside each run. Slow phases on the reference host are
the hypervisor stealing CPU time: every attempt waits for a quiet host
first (up to 10 s), a run whose attempt lost more than 2% of CPU time to
steal makes one more, and each run's line shows every attempt's wait and
steal share. The
first ~10 epochs of a networked service run about 45% slower than later
ones, so every workload warms up before timing and the warm-up is counted
in `setup_s`.

Exit status: 0 when every judged spread is within its bound and every run
was correct with the same failed share; 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace=0, env=None):
    """Runs the benchmark command once; returns (result dict, wall seconds,
    and the run's per-attempt host lines)."""
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    host = " | ".join(l for l in proc.stderr.splitlines() if l.startswith("attempt "))
    return json.loads(lines[-1]), wall, host


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    record = {}
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            res, wall, host = run_once(bench, w, seed, seconds)
            results.append(res)
            print(f"  {w} seed {seed}: {wall:.1f} s, correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} | {host}", flush=True)
        record[w] = results
        if not all(r["correct"] for r in results):
            print(f"{w}: INCORRECT run(s)")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"{w} ({args.runs} runs, --seconds {seconds}):")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, s = spread(values)
            if name == "setup_s":
                verdict = "(not judged)"
            elif s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within"
            else:
                verdict = "WIDE"
                ok = False
            print(f"  {name:<20} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {s:>8.4f} {bound:>6.2f} {verdict}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
