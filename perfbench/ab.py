#!/usr/bin/env python3
"""Same-host A/B: a given commit against the working tree, run in
alternating pairs with identical benchmark code.

    python3 perfbench/ab.py COMMIT [--pairs 10] [--workload NAME ...] \
        [--seconds S] [--trace 0|1] [--seed-base 500] [--scratch DIR]

COMMIT is exported with `git archive` into a scratch directory (default:
a fresh directory under the system temp dir). The working tree's
`perfbench/` and `BENCHMARK.json` are copied over the export, so both sides
run the same benchmark against different program code. Each side builds
into its own `CARGO_TARGET_DIR` inside the scratch directory. The export
is a plain directory, not a `git worktree`, so nothing is registered in
the repository and removing the scratch directory is the whole clean-up.

Pair i runs both sides on seed `seed-base + i`; even pairs run the commit
first, odd pairs the working tree first. For every metric it prints each
side's median and quartiles (`statistics.quantiles(values, n=4)`), the
working tree's wins per pair in the metric's better direction (ties count
for neither side), and a verdict:

* `gain`: the working tree wins at least nine tenths of the pairs and the
  medians differ by more than the commit's own quartile spread;
* `regression`: the working tree's median is worse than the commit's by
  more than the metric's bound (end-to-end metrics only);
* `unresolved`: the commit's spread is wider than the bound, so a
  change within it cannot be told from noise;
* `same`: none of the above.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from steady import load_benchmark, run_once  # noqa: E402


def export(commit, dest):
    """Exports COMMIT into DEST and overlays the working tree's benchmark."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    bench = os.path.join(dest, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__", "target"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        check=True, env=env,
    )
    return env


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    return tuple(statistics.quantiles(values, n=4))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=500)
    ap.add_argument("--scratch")
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    scratch = args.scratch or tempfile.mkdtemp(prefix="sbc-ab-")
    base_root = os.path.join(scratch, "base")
    export(args.commit, base_root)
    base_bench = dict(bench, command=[
        c.replace("perfbench/Cargo.toml", os.path.join(base_root, "perfbench", "Cargo.toml"))
        for c in bench["command"]
    ])
    sides = {
        "base": (base_bench, build(base_root, os.path.join(scratch, "build-base"))),
        "head": (bench, build(ROOT, os.path.join(scratch, "build-head"))),
    }
    print(f"A/B {args.commit} (base) vs working tree (head) in {scratch}", flush=True)

    ok = True
    for w in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                cfg, env = sides[side]
                res, _, _ = run_once(cfg, w, seed, seconds, args.trace, env)
                if not res["correct"]:
                    print(f"  {w} {side} seed {seed}: INCORRECT")
                    ok = False
                runs[side].append(res)
            print(f"  {w} pair {i + 1}/{args.pairs} done", flush=True)
        print(f"{w} ({args.pairs} pairs, --seconds {seconds}):")
        print(f"  {'metric':<30} {'base median [q1, q3]':>36} {'head median [q1, q3]':>36} {'wins':>6}  verdict")
        for m in metrics:
            name = m["name"]
            higher = m["better"] == "higher"
            b = [r["metrics"][name]["value"] for r in runs["base"]]
            h = [r["metrics"][name]["value"] for r in runs["head"]]
            wins = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
            bq, hq = quartiles(b), quartiles(h)
            base_iqr = bq[2] - bq[0]
            worse = (bq[1] - hq[1]) if higher else (hq[1] - bq[1])
            bound = m.get("bound")
            if bound is not None and bq[1] and worse / abs(bq[1]) > bound:
                verdict = "regression"
                ok = False
            elif wins >= 0.9 * args.pairs and abs(hq[1] - bq[1]) > base_iqr:
                verdict = "gain"
            elif bound is not None and bq[1] and base_iqr / abs(bq[1]) > bound:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:<30} {bq[1]:>14.4f} [{bq[0]:.4f}, {bq[2]:.4f}] "
                  f"{hq[1]:>14.4f} [{hq[0]:.4f}, {hq[2]:.4f}] {wins:>3}/{args.pairs}  {verdict}")
        with open(os.path.join(scratch, f"ab-{w}.json"), "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
