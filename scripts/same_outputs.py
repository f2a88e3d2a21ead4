#!/usr/bin/env python3
"""Check that two checkouts write byte-identical outputs.

Each tree runs, in a temporary directory T of its own, with one BLAS thread
and no bytecode written,

  * its scripts/run_pipeline.py --out T/pipeline --seed 7, then its
    mathemb pca --model T/pipeline/sym --l2-normalize --out T/pca_l2.tsv
    (the pipeline's own pca does not normalise);
  * for each workload of BENCHMARK.json, its perfbench/gen.py --seed 4321
    into T/WORKLOAD/inputs, then, in a child process with the tree's src and
    perfbench on sys.path, one run.Bench set-up, round and evaluation in
    T/WORKLOAD; a failed command or a failed check stops the comparison.

The two temporary trees are then compared file by file.  Exit 0 when every
file is identical; exit 1 naming each file that differs or exists on one
side only.  Nothing is written in either checkout.

Usage: python3 scripts/same_outputs.py --parent DIR --change DIR
"""

import argparse
import filecmp
import json
import os
import pathlib
import subprocess
import sys
import tempfile

PIPELINE_SEED = 7
BENCH_SEED = 4321

# argv: src dir, perfbench dir, workload, seed, work dir
BENCH = """
import pathlib, sys
src, perfbench, workload, seed, work = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import run
work = pathlib.Path(work)
bench = run.Bench(workload, int(seed), work, work / "inputs")
bench.setup()
bench.round()
bench.evaluate()
failures = bench.check()
for failure in failures:
    print(f"check failed: {failure}", file=sys.stderr)
sys.exit(1 if failures or bench.failed else 0)
"""


def run(argv, cwd, name):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")


def outputs(tree: pathlib.Path, out: pathlib.Path, workloads) -> None:
    """Write every output of tree under out."""
    run([sys.executable, str(tree / "scripts" / "run_pipeline.py"), "--out",
         str(out / "pipeline"), "--seed", str(PIPELINE_SEED)], out, f"{tree}: run_pipeline.py")
    run([sys.executable, "-m", "mathemb", "pca", "--model", str(out / "pipeline" / "sym"),
         "--l2-normalize", "--out", str(out / "pca_l2.tsv")], tree / "src", f"{tree}: pca")
    for workload in workloads:
        work = out / workload
        run([sys.executable, str(tree / "perfbench" / "gen.py"), "--workload", workload,
             "--seed", str(BENCH_SEED), "--out", str(work / "inputs")], out,
            f"{tree}: gen.py {workload}")
        run([sys.executable, "-c", BENCH, str(tree / "src"), str(tree / "perfbench"), workload,
             str(BENCH_SEED), str(work)], out, f"{tree}: benchmark round {workload}")


def files(root: pathlib.Path) -> set[pathlib.Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=pathlib.Path, help="changed checkout")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory() as tmp:
        roots = {}
        for side in ("parent", "change"):
            roots[side] = pathlib.Path(tmp) / side
            roots[side].mkdir()
            outputs(getattr(args, side).resolve(), roots[side], workloads)
        parent, change = files(roots["parent"]), files(roots["change"])
        differ = [f"differs: {p}" for p in sorted(parent & change)
                  if not filecmp.cmp(roots["parent"] / p, roots["change"] / p, shallow=False)]
        differ += [f"parent only: {p}" for p in sorted(parent - change)]
        differ += [f"change only: {p}" for p in sorted(change - parent)]
    for line in differ:
        print(line)
    print(f"{len(parent | change) - len(differ)} of {len(parent | change)} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
