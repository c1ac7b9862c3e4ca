#!/usr/bin/env python3
"""A/B benchmark: a base revision against the working tree, in alternating pairs.

    python3 tools/ab_bench.py --base HEAD~1 --workload bigtrace --pairs 10 \\
        --seed 600 --seconds 60 --scratch /tmp/ab

The base revision is extracted with `git archive` into <scratch>/base; the
change is the working tree (uncommitted edits included), or --change REV,
extracted likewise. Each tree is built and run through its own
perfbench/run.py with its own CARGO_TARGET_DIR under the scratch directory,
so the two builds never share objects. Pair i runs both trees on seed
--seed + i; even pairs run the base first, odd pairs the change first.

Prints one row per metric: the base's median [q1, q3], the change's median
[q1, q3], the ratio of medians (change / base), and in how many pairs the
change was better, in the direction BENCHMARK.json gives for the metric
(lower is better for a metric it does not list). The raw results go to
<scratch>/ab_results.json. Needs no network.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(f"ab_bench: {msg}", file=sys.stderr, flush=True)


def extract(rev, dest):
    """Writes the tree of `rev` to `dest` with git archive."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run(tree, target_dir, workload, seed, seconds, trace):
    """One perfbench/run.py run of `tree`; returns its result JSON."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def quartiles(values):
    """Median, first and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def directions():
    """Metric name -> 'lower' or 'higher', from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower")
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def report(pairs):
    """The table: one line per metric both sides reported."""
    better_dir = directions()
    names = [n for n in pairs[0]["base"]["metrics"]
             if all(n in p["base"]["metrics"] and n in p["change"]["metrics"]
                    for p in pairs)]
    rows = [f"{'metric':<24} {'base median [q1, q3]':>30} "
            f"{'change median [q1, q3]':>30} {'ratio':>7} better"]
    for name in names:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        higher = better_dir.get(name, "lower") == "higher"
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        bm, bq1, bq3 = quartiles(base)
        cm, cq1, cq3 = quartiles(change)
        ratio = cm / bm if bm else float("nan")
        rows.append(f"{name:<24} {bm:>10.4g} [{bq1:.4g}, {bq3:.4g}]".ljust(56) +
                    f" {cm:>10.4g} [{cq1:.4g}, {cq3:.4g}]".ljust(31) +
                    f" {ratio:>6.3f}x {wins}/{len(pairs)}")
    failed = [(p["base"].get("failed", 0), p["change"].get("failed", 0))
              for p in pairs]
    rows.append("failed operations (base, change) per pair: " +
                " ".join(f"{b}/{c}" for b, c in failed))
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare")
    ap.add_argument("--change", default=None,
                    help="git revision of the change (default: working tree)")
    ap.add_argument("--workload", required=True, choices=("suite", "bigtrace"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True,
                    help="directory for the extracted trees and builds")
    args = ap.parse_args()

    scratch = os.path.abspath(args.scratch)
    base_tree = os.path.join(scratch, "base")
    if not os.path.isdir(base_tree):
        extract(args.base, base_tree)
    change_tree = ROOT
    if args.change is not None:
        change_tree = os.path.join(scratch, "change")
        if not os.path.isdir(change_tree):
            extract(args.change, change_tree)
    sides = {"base": (base_tree, os.path.join(scratch, "build-base")),
             "change": (change_tree, os.path.join(scratch, "build-change"))}

    # Build both trees with a short run each, so that no timed run
    # includes a compile.
    for side, (tree, target) in sides.items():
        log(f"building {side} ({tree})")
        run(tree, target, args.workload, args.seed, 1, 0)

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            tree, target = sides[side]
            log(f"pair {i + 1}/{args.pairs} seed {seed}: {side}")
            pair[side] = run(tree, target, args.workload, seed, args.seconds,
                             args.trace)
        pairs.append(pair)
        with open(os.path.join(scratch, "ab_results.json"), "w") as f:
            json.dump(pairs, f, indent=1)

    print(f"{args.workload}: {args.pairs} alternating pairs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, --seconds {args.seconds}")
    print(report(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
