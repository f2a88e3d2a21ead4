#!/usr/bin/env python3
"""Run the benchmark in pairs on two checkouts and compare their end-to-end metrics.

Pair i runs, in each tree,

  python3 perfbench/run.py --workload NAME --seed 21001+i --seconds S --trace 0

(the command of BENCHMARK.json, S its `run_seconds`), the parent first when i
is even and the change first when i is odd.  Each run's last stdout line is its JSON result;
a run that exits non-zero, reports correct: false or has failed commands
stops the set with exit 1, naming the run.

Then one row per end-to-end metric of the change tree's BENCHMARK.json: the
parent and change medians, their ratio (change / parent), the parent's
interquartile spread as a share of its median, and the pairs the change won
(ties count for neither side; the direction comes from `better`).  A metric
whose change median is worse than the parent's by more than its `bound` is
marked WORSE.  One whose parent spread is wider than its bound is marked
UNRESOLVED, unless every change run beats every parent run: its runs cannot
tell a change within the bound from none.  Use a copy of one tree as both
sides for an A/A set, which shows how far this host's runs spread.

Usage: python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME
       [--pairs 10]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SEED = 21001  # the seed of pair 0
MIN_PAIRS = 10


def run_once(tree: pathlib.Path, command, workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    name = f"{tree} seed {seed}"
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=4 * seconds + 600)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: {name}: no result after {4 * seconds + 600:g} s")
    if proc.returncode != 0:
        sys.exit(f"error: {name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: {name}: last stdout line is not a JSON result")
    if not result.get("correct"):
        sys.exit(f"error: {name}: correct: false: {proc.stderr.strip()[-500:]}")
    if result.get("failed"):
        sys.exit(f"error: {name}: {result['failed']} failed commands")
    return {k: m["value"] for k, m in result["metrics"].items()}


def metric_row(metric: dict, parent: list, change: list) -> str:
    """The table row of one end-to-end metric of BENCHMARK.json, from its
    parent and change values, pair i at index i of each."""
    name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
    # quartiles and median, interpolated between the runs
    q1, p_med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_med = statistics.median(change)
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    worse = c_med < p_med * (1 - bound) if higher else c_med > p_med * (1 + bound)
    apart = min(change) > max(parent) if higher else max(change) < min(parent)
    spread = (q3 - q1) / p_med
    unresolved = spread > bound and not apart
    return (f"{name:<28} {p_med:>12.5g} {c_med:>12.5g} {c_med / p_med:>7.3f} "
            f"{spread:>10.1%} {won:>3}/{len(parent)}"
            + "  WORSE" * worse + "  UNRESOLVED" * unresolved)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=pathlib.Path, help="changed checkout")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS,
                    help=f"pairs of runs, >= {MIN_PAIRS} (default {MIN_PAIRS})")
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be >= {MIN_PAIRS}")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = SEED + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            print(f"pair {i}, seed {seed}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_once(sides[side], spec["command"], args.workload, seed,
                                       seconds))

    print(f"{args.workload}: {args.pairs} pairs at {seconds:g} s, "
          f"seeds {SEED}-{SEED + args.pairs - 1}")
    print(f"{'metric':<28} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'parent IQR':>10} {'won':>6}")
    for metric in spec["end_to_end"]:
        print(metric_row(metric, [r[metric["name"]] for r in runs["parent"]],
                         [r[metric["name"]] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
