"""Command-line pipeline driver.

Subcommands cover the whole pipeline: tokenize, ingest, filter,
train-symbol2vec, train-formula2vec, neighbors, pca, index-text, search,
evaluate, sweep.  --dump-config prints the resolved configuration as JSON and
exits.  --config reads such a JSON object (keys: the dests it prints) as flags
put before the command line's own, which win: null keeps the default, a switch
takes true or false, a repeatable flag a list, any other key a string or
number, passed as --flag=value.  Required flags stay on the command line.
Every artifact's header comment records tool version, seed, and the non-path
configuration, so reruns with the same inputs and seed are byte-identical.

Exit codes: 0 success, 1 data error (one-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, artifacts
from .errors import MalformedRecord, MathembError

# dests holding filesystem paths; excluded from artifact headers so outputs
# do not depend on where they were produced
_PATH_DESTS = {"collection", "out", "store", "corpus", "model", "index",
               "queries", "qrels", "run", "stopwords", "config"}
_NON_CONFIG = {"command", "dump_config", "help"}

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
    p.add_argument("--components", type=int, default=2,
                   help="principal components kept (default 2)")
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
    p.add_argument("--method", required=True, choices=["formula2vec", "lm", "combined"],
                   help="ranking signal: formula vectors, text, or both")
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
    p.add_argument("--axis", required=True, choices=["dimension", "alpha"],
                   help="swept parameter: formula vector dimension or the combined "
                        "method's alpha")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--queries", required=True, help="JSON-lines query file")
    p.add_argument("--qrels", required=True, help="TREC qrels file")
    p.add_argument("--mu", type=float, default=2000.0,
                   help="Dirichlet smoothing mass on the alpha axis (default 2000)")
    p.add_argument("--steps", type=int, default=50,
                   help="inference passes for unseen formulae (default 50)")
    p.add_argument("--ks", default="30,50", help="cutoffs for NDCG@k/P@k (default 30,50)")
    p.add_argument("--threshold", type=int, default=1,
                   help="relevance binarization grade (default 1)")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")
    _add_training_flags(p, default_dim=300)

    return parser, commands


def _argv_with_config(argv, args, subparser) -> list[str]:
    """argv with the --config file's flags after the subcommand (rules: module docstring)."""
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest not in _NON_CONFIG}
    tokens = []
    for key, value in config.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        flag, switch = actions[key].option_strings[-1], actions[key].nargs == 0
        repeat = isinstance(actions[key], argparse._AppendAction)
        values = value if isinstance(value, list) else [value]
        if value is None or (switch and isinstance(value, bool)):
            tokens += [flag] if value else []
        elif switch or isinstance(value, list) != repeat or not all(
                type(v) in (str, int, float) for v in values):
            want = "true or false" if switch else "a list" if repeat else "a string or number"
            raise ValueError(f"config key {key!r} must be {want}")
        else:
            tokens += [f"{flag}={v}" for v in values]
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def _resolved_config(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in _NON_CONFIG}


def _meta(args, seed=None) -> dict:
    """Artifact meta comment fields, keys sorted."""
    cfg = {k: v for k, v in _resolved_config(args).items() if k not in _PATH_DESTS}
    meta = {"tool": "mathemb", "version": __version__}
    if seed is not None:
        meta["seed"] = seed
    elif "seed" in cfg:
        meta["seed"] = cfg["seed"]
    meta["config"] = artifacts.to_json(cfg)
    return dict(sorted(meta.items()))


def _write_or_print(text: str, out_path):
    if out_path:
        artifacts.write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _parse_values(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip()]


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


def _cmd_train(args) -> int:
    """train-symbol2vec and train-formula2vec: the command names the mode."""
    from .corpus import build_vocabulary, load_training_corpus
    from .embeddings import Mode, TrainingConfig, save_table, train_formula2vec, train_symbol2vec

    mode = Mode(args.command.removeprefix("train-"))
    corpus = load_training_corpus(args.corpus)
    vocab = build_vocabulary(corpus, min_count=args.min_count, power=args.sample_power)
    config = TrainingConfig(
        dim=args.dim, window=args.window, negatives=args.negatives,
        epochs=args.epochs, lr_start=args.lr_start, lr_end=args.lr_end,
        seed=args.seed, mode=mode,
    )
    trainer = train_symbol2vec if mode is Mode.SYMBOL2VEC else train_formula2vec
    table = trainer(corpus, vocab, config)
    save_table(table, args.out)
    loss = f"{table.epoch_losses[-1]:.4f}" if table.epoch_losses else "n/a"
    print(f"vocab={len(vocab)} dim={config.dim} epochs={config.epochs} "
          f"final_epoch_loss={loss} skipped_short={table.skipped_short}")
    return 0


def _cmd_neighbors(args) -> int:
    from .analysis import nearest_neighbors
    from .embeddings import load_table

    table = load_table(args.model)
    symbols = args.symbol if args.symbol else list(table.vocab.surfaces)
    lines = ["surface\trank\tneighbor\tcosine"]
    for s in symbols:
        nl = nearest_neighbors(table, s, args.k)
        for rank, (other, cos) in enumerate(nl.neighbors, start=1):
            lines.append(f"{s}\t{rank}\t{other}\t{cos:.6f}")
    _write_or_print(artifacts.render(lines, meta=_meta(args, seed=table.config.seed)), args.out)
    return 0


def _cmd_pca(args) -> int:
    from .analysis import pca_project
    from .embeddings import load_table

    table = load_table(args.model)
    proj = pca_project(table, components=args.components, l2_normalize=args.l2_normalize)
    names = ["x", "y", "z"][:args.components] if args.components <= 3 else [
        f"c{i+1}" for i in range(args.components)]
    lines = ["\t".join(["surface"] + names)]
    for surface, coords in proj.coords:
        lines.append("\t".join([surface] + [f"{c:.6f}" for c in coords]))
    _write_or_print(artifacts.render(lines, meta=_meta(args, seed=table.config.seed)), args.out)
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
    if method in (RankMethod.LM, RankMethod.COMBINED):
        if not args.index:
            raise ValueError(f"--index is required for method {method.value}")
        index = TextIndex.load(args.index)
        pages, indexed = {p.page_id for p in coll.pages}, set(index.page_ids)
        if pages != indexed:
            raise MalformedRecord(
                f"{args.index} does not index the pages of {args.store}: "
                f"{len(pages - indexed)} pages only in the store, "
                f"{len(indexed - pages)} only in the index")
        if args.mu is None:
            args.mu = index.mu
    if method in (RankMethod.FORMULA2VEC, RankMethod.COMBINED):
        if not args.model:
            raise ValueError(f"--model is required for method {method.value}")
        provider = FormulaVectorProvider(load_table(args.model), infer_steps=args.steps)
        formulas = FormulaMatrix.build(coll.pages, coll, provider, queries)
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
    for qid in report.queries_missing:
        print(f"warning: judged query {qid} missing from the run, scored 0", file=sys.stderr)
    _write_or_print(report_tsv(report, _meta(args)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .corpus import ingest_queries, load_collection, load_training_corpus
    from .embeddings import Mode, TrainingConfig
    from .evaluation import SweepAxis, parse_qrels, sweep, sweep_tsv

    axis = SweepAxis(args.axis)
    values = _parse_values(args.values)
    ks = _parse_ks(args.ks)
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
        config=config, mu=args.mu, infer_steps=args.steps,
        min_count=args.min_count, power=args.sample_power,
        ks=ks, threshold=args.threshold,
    )
    _write_or_print(sweep_tsv(axis, results, ks=ks, meta=_meta(args)), args.out)
    return 0


_HANDLERS = {
    "tokenize": _cmd_tokenize,
    "ingest": _cmd_ingest,
    "filter": _cmd_filter,
    "train-symbol2vec": _cmd_train,
    "train-formula2vec": _cmd_train,
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
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_argv_with_config(argv, args, commands[args.command]))
        for flag, least in (("top", 1), ("steps", 0), ("threshold", 1)):
            if getattr(args, flag, least) < least:
                raise ValueError(f"--{flag} must be >= {least}")
        mu = getattr(args, "mu", None)
        if mu is not None and not 0 < mu < math.inf:
            raise ValueError("--mu must be finite and > 0")
        axis = getattr(args, "axis", None)
        values = _parse_values(args.values) if axis else []
        if axis and not values:
            raise ValueError("--values must hold at least one value")
        alphas = [("alpha", getattr(args, "alpha", 0.0))]
        if axis == "alpha":
            alphas += [("values", v) for v in values]
        for flag, value in alphas:
            if not 0 <= value < math.inf:
                raise ValueError(f"--{flag} must be finite and >= 0")
        if axis == "dimension" and not all(v.is_integer() and v >= 1 for v in values):
            raise ValueError("--values must be integers >= 1")
        tag = getattr(args, "tag", "mathemb")
        if tag.split() != [tag]:
            raise ValueError("--tag must be non-empty and hold no whitespace")
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
    except (MathembError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
