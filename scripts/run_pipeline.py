#!/usr/bin/env python3
"""Run the whole retrieval pipeline on the bundled fixture corpus.

Ingests the collection, filters it, trains both embedding models, builds the
text index, searches with all three ranking methods, evaluates each run, and
produces the dimension and alpha sweep tables.  All artifacts land in the
output directory (default ./out).  The acceptance suite runs this same
pipeline through run_pipeline().

Usage: python scripts/run_pipeline.py [--out DIR] [--seed N]
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mathemb.cli import main as mathemb  # noqa: E402

FIXTURE = ROOT / "data" / "fixture"
METHODS = ("formula2vec", "lm", "combined")
# formula2vec settings that give reliable family separation on the tiny fixture
DIM, EPOCHS, LR_START = 96, 100, 0.1


class StepFailed(RuntimeError):
    """A pipeline command exited non-zero; code is its exit code."""

    def __init__(self, argv, code):
        super().__init__(f"step failed ({code}): mathemb {' '.join(argv)}")
        self.code = code


def run(argv):
    print("$ mathemb " + " ".join(argv))
    code = mathemb(argv)
    if code != 0:
        raise StepFailed(argv, code)


def run_pipeline(out, seed=7, dim=DIM, epochs=EPOCHS, lr_start=LR_START,
                 sweep_dims="10,50,100", sweep_alphas="0,1,4,1e6") -> dict[str, pathlib.Path]:
    """Run every stage into the directory out; returns {artifact name: path}.
    Raises StepFailed at the first command that exits non-zero."""
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    files = {"store": "collection.store", "train": "train.corpus", "sym": "sym", "f2v": "f2v",
             "neighbors": "neighbors.tsv", "pca": "pca.tsv", "index": "text.index",
             **{f"run_{m}": f"{m}.run" for m in METHODS},
             **{f"report_{m}": f"{m}.report.tsv" for m in METHODS},
             "sweep_dimension": "sweep_dimension.tsv", "sweep_alpha": "sweep_alpha.tsv"}
    paths = {name: out / file for name, file in files.items()}
    p = {name: str(path) for name, path in paths.items()}
    collection, queries, qrels = (str(FIXTURE / name) for name in
                                  ("collection.jsonl", "queries.jsonl", "qrels.txt"))
    f2v_flags = ["--dim", str(dim), "--epochs", str(epochs), "--lr-start", str(lr_start),
                 "--seed", str(seed)]

    run(["ingest", "--collection", collection, "--out", p["store"]])
    run(["filter", "--store", p["store"], "--out", p["train"]])
    run(["train-symbol2vec", "--corpus", p["train"], "--out", p["sym"],
         "--dim", "100", "--epochs", "20", "--lr-start", "0.05", "--seed", str(seed)])
    run(["train-formula2vec", "--corpus", p["train"], "--out", p["f2v"], *f2v_flags])
    run(["neighbors", "--model", p["sym"], "--k", "8", "--out", p["neighbors"]])
    run(["pca", "--model", p["sym"], "--out", p["pca"]])
    run(["index-text", "--store", p["store"], "--out", p["index"], "--mu", "2000"])

    for method in METHODS:
        run(["search", "--store", p["store"], "--queries", queries,
             "--method", method, "--model", p["f2v"], "--index", p["index"],
             "--alpha", "4", "--mu", "2000", "--out", p[f"run_{method}"]])
        run(["evaluate", "--run", p[f"run_{method}"], "--qrels", qrels,
             "--out", p[f"report_{method}"]])

    sweep_common = ["--store", p["store"], "--corpus", p["train"],
                    "--queries", queries, "--qrels", qrels, *f2v_flags]
    run(["sweep", "--axis", "dimension", "--values", sweep_dims, *sweep_common,
         "--out", p["sweep_dimension"]])
    run(["sweep", "--axis", "alpha", "--values", sweep_alphas, *sweep_common,
         "--out", p["sweep_alpha"]])
    return paths


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    try:
        paths = run_pipeline(args.out, args.seed)
    except StepFailed as exc:
        return exc.code

    print("\n=== mean metrics per ranking method ===")
    for method in METHODS:
        lines = paths[f"report_{method}"].read_text().splitlines()
        header = next(ln for ln in lines if ln.startswith("query_id"))
        means = next(ln for ln in lines if ln.startswith("ALL"))
        print(f"[{method}]")
        print("  " + header)
        print("  " + means)
    print(f"\nartifacts in {pathlib.Path(args.out)}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
