"""Command-line pipeline driver.

Subcommands cover the whole pipeline: tokenize, ingest, filter,
train-symbol2vec, train-formula2vec, neighbors, pca, index-text, search,
evaluate, sweep.  Configuration precedence is flags > --config file (JSON,
keys named like the flag dests) > built-in defaults; --dump-config prints the
resolved configuration and exits.  Every written artifact carries a header
comment with tool version, seed, and the non-path configuration, so reruns
with identical inputs and seed are byte-identical.

Exit codes: 0 success, 1 data error (one-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import MathembError

# dests holding filesystem paths; excluded from artifact headers so outputs
# do not depend on where they were produced
_PATH_DESTS = {"collection", "out", "store", "corpus", "model", "index",
               "queries", "qrels", "run", "stopwords", "config"}
_NON_CONFIG = {"func", "command", "dump_config"}

REFERENCE_SETTINGS = "reference settings: formula dim=300, alpha=4, mu=2000"


def _add_training_flags(p, default_dim):
    p.add_argument("--dim", type=int, default=default_dim,
                   help=f"embedding dimension (default {default_dim})")
    p.add_argument("--window", type=int, default=5,
                   help="max context width per side (default 5)")
    p.add_argument("--negatives", type=int, default=5,
                   help="negative samples per step (default 5)")
    p.add_argument("--epochs", type=int, default=5, help="training epochs (default 5)")
    p.add_argument("--lr-start", type=float, default=0.025,
                   help="initial learning rate (default 0.025)")
    p.add_argument("--lr-end", type=float, default=0.0001,
                   help="final learning rate (default 0.0001)")
    p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    p.add_argument("--min-count", type=int, default=1,
                   help="drop surfaces rarer than this (default 1)")
    p.add_argument("--sample-power", type=float, default=0.75,
                   help="negative-sampling distribution exponent (default 0.75)")
    p.add_argument("--workers", type=int, default=1,
                   help="training threads; >1 is non-deterministic (default 1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mathemb",
        description=f"Formula embeddings for math-aware page retrieval ({REFERENCE_SETTINGS}).",
    )
    parser.add_argument("--version", action="version", version=f"mathemb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags given explicitly win")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved configuration and exit")
        commands[name] = p
        return p

    p = add("tokenize", "read LaTeX lines on stdin, write space-joined tokens")

    p = add("ingest", "build a collection store from a JSON-lines collection file")
    p.add_argument("--collection", required=True, help="input JSON-lines collection")
    p.add_argument("--out", required=True, help="output collection store")
    p.add_argument("--stopwords", default=None, help="optional stopword file")

    p = add("filter", "keep training-eligible formulae from a collection store")
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--out", required=True, help="output training corpus")

    p = add("train-symbol2vec", "train symbol vectors (CBOW, negative sampling)")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--out", required=True, help="model file prefix")
    _add_training_flags(p, default_dim=100)

    p = add("train-formula2vec", "train formula vectors (PV-DM)")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--out", required=True, help="model file prefix")
    _add_training_flags(p, default_dim=300)

    p = add("neighbors", "nearest symbols by cosine, as TSV")
    p.add_argument("--model", required=True, help="model file prefix")
    p.add_argument("--symbol", action="append", default=None,
                   help="query surface; repeatable; default: all")
    p.add_argument("--k", type=int, default=8, help="neighbors per symbol (default 8)")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = add("pca", "2-D principal-component coordinates of symbol vectors, as TSV")
    p.add_argument("--model", required=True, help="model file prefix")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--l2-normalize", action="store_true",
                   help="length-normalize vectors before projecting")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = add("index-text", "build the text index for the language model")
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--out", required=True, help="output index file")
    p.add_argument("--mu", type=float, default=2000.0,
                   help="Dirichlet smoothing mass (default 2000)")

    p = add("search", "rank pages for every query, TREC run output")
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--queries", required=True, help="JSON-lines query file")
    p.add_argument("--method", required=True, choices=["formula2vec", "lm", "combined"])
    p.add_argument("--model", default=None, help="model prefix (formula2vec/combined)")
    p.add_argument("--index", default=None, help="text index file (lm/combined)")
    p.add_argument("--alpha", type=float, default=4.0,
                   help="text weight in the combined score (default 4)")
    p.add_argument("--mu", type=float, default=None,
                   help="Dirichlet smoothing mass (default: the one index-text stored)")
    p.add_argument("--top", type=int, default=1000, help="pages kept per query (default 1000)")
    p.add_argument("--steps", type=int, default=50,
                   help="inference passes for unseen formulae (default 50)")
    p.add_argument("--tag", default="mathemb", help="run tag (default mathemb)")
    p.add_argument("--out", required=True, help="output run file")

    p = add("evaluate", "score a run file against qrels")
    p.add_argument("--run", required=True, help="TREC run file")
    p.add_argument("--qrels", required=True, help="TREC qrels file")
    p.add_argument("--ks", default="30,50", help="cutoffs for NDCG@k/P@k (default 30,50)")
    p.add_argument("--threshold", type=int, default=1,
                   help="relevance binarization grade (default 1)")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = add("sweep", "train/rank/evaluate across dimensions or alpha values")
    p.add_argument("--axis", required=True, choices=["dimension", "alpha"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--queries", required=True, help="JSON-lines query file")
    p.add_argument("--qrels", required=True, help="TREC qrels file")
    p.add_argument("--alpha", type=float, default=4.0)
    p.add_argument("--mu", type=float, default=2000.0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--ks", default="30,50")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--out", default=None, help="output TSV (default stdout)")
    _add_training_flags(p, default_dim=300)

    return parser, commands


def _apply_config_file(argv, commands):
    """Pre-scan for the subcommand and --config, then lower config values to
    subparser defaults so explicit flags still win."""
    command = next((a for a in argv if not a.startswith("-")), None)
    if command not in commands:
        return
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if path is None:
        return
    with open(path, encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    subparser = commands[command]
    valid = {a.dest for a in subparser._actions}
    unknown = set(overrides) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    subparser.set_defaults(**overrides)


def _resolved_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in _NON_CONFIG}


def _meta(args, seed=None) -> dict:
    cfg = {k: v for k, v in _resolved_config(args).items() if k not in _PATH_DESTS}
    meta = {"tool": "mathemb", "version": __version__}
    if seed is not None:
        meta["seed"] = seed
    elif "seed" in cfg:
        meta["seed"] = cfg["seed"]
    meta["config"] = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return meta


def _write_or_print(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_ks(raw: str):
    ks = tuple(int(x) for x in raw.split(",") if x.strip())
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"bad cutoff list {raw!r}")
    return ks


# ---------------------------------------------------------------------------
# handlers


def _cmd_tokenize(args) -> int:
    from .tokenizer import tokenize_surfaces

    for line in sys.stdin:
        sys.stdout.write(" ".join(tokenize_surfaces(line)) + "\n")
    return 0


def _cmd_ingest(args) -> int:
    from .corpus import ingest_pages, load_stopwords, save_collection

    stop = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    coll = ingest_pages(args.collection, stop)
    save_collection(coll, args.out, _meta(args))
    print(f"pages={coll.page_count} formulas={coll.formula_count}")
    return 0


def _cmd_filter(args) -> int:
    from .corpus import filter_corpus, load_collection, save_training_corpus

    coll = load_collection(args.store)
    kept = filter_corpus(coll.formulas.values())
    save_training_corpus(kept, args.out, _meta(args))
    print(f"kept={len(kept)} dropped={coll.formula_count - len(kept)}")
    return 0


def _train_common(args, mode):
    from .corpus import build_vocabulary, load_training_corpus
    from .embeddings import TrainingConfig, save_table, train_formula2vec, train_symbol2vec
    from .embeddings import Mode

    corpus = load_training_corpus(args.corpus)
    vocab = build_vocabulary(corpus, min_count=args.min_count, power=args.sample_power)
    config = TrainingConfig(
        dim=args.dim, window=args.window, negatives=args.negatives,
        epochs=args.epochs, lr_start=args.lr_start, lr_end=args.lr_end,
        seed=args.seed, mode=mode,
    )
    trainer = train_symbol2vec if mode is Mode.SYMBOL2VEC else train_formula2vec
    table = trainer(corpus, vocab, config, workers=args.workers)
    save_table(table, args.out)
    loss = f"{table.epoch_losses[-1]:.4f}" if table.epoch_losses else "n/a"
    print(f"vocab={len(vocab)} dim={config.dim} epochs={config.epochs} "
          f"final_epoch_loss={loss} skipped_short={table.skipped_short}")
    return 0


def _cmd_train_symbol2vec(args) -> int:
    from .embeddings import Mode

    return _train_common(args, Mode.SYMBOL2VEC)


def _cmd_train_formula2vec(args) -> int:
    from .embeddings import Mode

    return _train_common(args, Mode.FORMULA2VEC)


def _cmd_neighbors(args) -> int:
    from .analysis import nearest_neighbors
    from .embeddings import load_table

    table = load_table(args.model)
    symbols = args.symbol if args.symbol else list(table.vocab.surfaces)
    meta = _meta(args, seed=table.config.seed)
    lines = ["# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta))]
    lines.append("surface\trank\tneighbor\tcosine")
    for s in symbols:
        nl = nearest_neighbors(table, s, args.k)
        for rank, (other, cos) in enumerate(nl.neighbors, start=1):
            lines.append(f"{s}\t{rank}\t{other}\t{cos:.6f}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_pca(args) -> int:
    from .analysis import pca_project
    from .embeddings import load_table

    table = load_table(args.model)
    proj = pca_project(table, components=args.components, l2_normalize=args.l2_normalize)
    names = ["x", "y", "z"][:args.components] if args.components <= 3 else [
        f"c{i+1}" for i in range(args.components)]
    meta = _meta(args, seed=table.config.seed)
    lines = ["# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta))]
    lines.append("\t".join(["surface"] + names))
    for surface, coords in proj.coords:
        lines.append("\t".join([surface] + [f"{c:.6f}" for c in coords]))
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_index_text(args) -> int:
    from .corpus import load_collection
    from .retrieval import TextIndex

    coll = load_collection(args.store)
    TextIndex.build(coll, mu=args.mu).save(args.out, _meta(args))
    print(f"pages={coll.page_count} collection_length={sum(len(p.text_terms) for p in coll.pages)}")
    return 0


def _cmd_search(args) -> int:
    from .corpus import ingest_queries, load_collection
    from .embeddings import load_table
    from .retrieval import (
        FormulaMatrix, FormulaVectorProvider, RankMethod, TextIndex, rank_pages, write_run,
    )

    method = RankMethod(args.method)
    coll = load_collection(args.store)
    queries = ingest_queries(args.queries)
    provider = None
    formulas = None
    index = None
    if method in (RankMethod.FORMULA2VEC, RankMethod.COMBINED):
        if not args.model:
            raise ValueError(f"--model is required for method {method.value}")
        provider = FormulaVectorProvider(load_table(args.model), infer_steps=args.steps)
        formulas = FormulaMatrix.build(coll.pages, coll, provider, queries)
    if method in (RankMethod.LM, RankMethod.COMBINED):
        if not args.index:
            raise ValueError(f"--index is required for method {method.value}")
        index = TextIndex.load(args.index)
        if args.mu is None:
            args.mu = index.mu
    ranked = [rank_pages(q, coll, method, provider=provider, index=index,
                         alpha=args.alpha, mu=args.mu, formulas=formulas) for q in queries]
    for rl in ranked:
        if rl.no_formulae:
            print(f"warning: query {rl.query_id} has no usable formulae", file=sys.stderr)
    seed = provider.table.config.seed if provider else None
    write_run(ranked, args.out, tag=args.tag, top=args.top, meta=_meta(args, seed=seed))
    print(f"queries={len(queries)} pages={coll.page_count} method={method.value}")
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluation import evaluate_run, report_tsv

    report = evaluate_run(args.run, args.qrels, ks=_parse_ks(args.ks),
                          threshold=args.threshold)
    for qid in report.queries_skipped:
        print(f"warning: query {qid} missing from qrels, skipped", file=sys.stderr)
    _write_or_print(report_tsv(report, _meta(args)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .corpus import ingest_queries, load_collection, load_training_corpus
    from .embeddings import Mode, TrainingConfig
    from .evaluation import SweepAxis, parse_qrels, sweep, sweep_tsv

    axis = SweepAxis(args.axis)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    config = TrainingConfig(
        dim=args.dim, window=args.window, negatives=args.negatives,
        epochs=args.epochs, lr_start=args.lr_start, lr_end=args.lr_end,
        seed=args.seed, mode=Mode.FORMULA2VEC,
    )
    results = sweep(
        axis, values,
        collection=load_collection(args.store),
        queries=ingest_queries(args.queries),
        train_corpus=load_training_corpus(args.corpus),
        qrels=parse_qrels(args.qrels),
        config=config, mu=args.mu, alpha=args.alpha, infer_steps=args.steps,
        min_count=args.min_count, power=args.sample_power,
        ks=_parse_ks(args.ks), threshold=args.threshold, workers=args.workers,
    )
    _write_or_print(sweep_tsv(axis, results, ks=_parse_ks(args.ks), meta=_meta(args)),
                    args.out)
    return 0


_HANDLERS = {
    "tokenize": _cmd_tokenize,
    "ingest": _cmd_ingest,
    "filter": _cmd_filter,
    "train-symbol2vec": _cmd_train_symbol2vec,
    "train-formula2vec": _cmd_train_formula2vec,
    "neighbors": _cmd_neighbors,
    "pca": _cmd_pca,
    "index-text": _cmd_index_text,
    "search": _cmd_search,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        _apply_config_file(argv, commands)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        print(json.dumps(_resolved_config(args), sort_keys=True))
        return 0
    try:
        return _HANDLERS[args.command](args)
    except MathembError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
