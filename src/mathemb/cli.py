"""Command-line pipeline driver.

Subcommands cover the whole pipeline: tokenize, ingest, filter,
train-symbol2vec, train-formula2vec, neighbors, pca, index-text, search,
evaluate, sweep.  Each subcommand's flags are added to the parser only when
that subcommand is parsed or its help printed, so a command builds no other
command's flags.  --dump-config prints the resolved configuration as JSON and
exits.  --config reads such a JSON object (keys: the dests it prints) as flags
put before the command line's own, which win: null keeps the default, a switch
takes true or false, a repeatable flag a list, any other key a string or
number, passed as --flag=value.  Required flags stay on the command line.
Every artifact's header comment records tool version, seed, and the non-path
configuration, so reruns with the same inputs and seed are byte-identical.

Exit codes: 0 success, 1 data error (one-line diagnostic on stderr),
2 usage error, such as a flag value out of its range (the README lists
them), raised before any file is read.
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
_NON_CONFIG = {"command", "dump_config", "help", "handler", "check"}

REFERENCE_SETTINGS = "reference settings: formula dim=300, alpha=4, mu=2000"


def _split(raw: str, kind=float) -> list:
    """The non-blank entries of a comma-separated flag value, as kind."""
    return [kind(v) for v in raw.split(",") if v.strip()]


# each range rule: its text in the error message, and the test of a value
_RULES = {
    "be >= 1": lambda v: v >= 1,
    "be finite and > 0": lambda v: 0 < v < math.inf,
    "be finite and >= 0": lambda v: 0 <= v < math.inf,
    "be integers >= 1": lambda v: v.is_integer() and v >= 1,
    "be one or more integers >= 1": lambda raw: min(_split(raw, int), default=0) >= 1,
    "hold at least one value": lambda raw: any(v.strip() for v in raw.split(",")),
    "be non-empty and hold no whitespace": lambda v: v.split() == [v],
}


def _passes(rule, value) -> bool:
    """rule(value), False where value does not parse."""
    try:
        return rule(value)
    except ValueError:
        return False


class _Checked(argparse.Action):
    """Stores a flag's value if it passes the rule named by must=, else raises
    ValueError; a value from a config file is checked as a typed one is, and
    one that does not parse fails the rule."""

    def __init__(self, *args, must: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.must = must

    def __call__(self, parser, namespace, value, option_string=None):
        if not _passes(_RULES[self.must], value):
            raise ValueError(f"{option_string} must {self.must}")
        setattr(namespace, self.dest, value)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that holds back its add_argument calls until it
    parses or formats its help or usage, so a command adds no other
    command's flags."""

    def __init__(self, *args, **kwargs):
        self._held = []
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        self._held.append((args, kwargs))

    def _add_held(self):
        held, self._held = self._held, []
        for args, kwargs in held:
            super().add_argument(*args, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        self._add_held()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self._add_held()
        return super().format_usage()

    def format_help(self):
        self._add_held()
        return super().format_help()


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
    p.add_argument("--min-count", type=int, default=1, action=_Checked, must="be >= 1",
                   help="drop surfaces rarer than this (default 1)")
    p.add_argument("--sample-power", type=float, default=0.75,
                   help="negative-sampling distribution exponent (default 0.75)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mathemb",
        description=f"Formula embeddings for math-aware page retrieval ({REFERENCE_SETTINGS}).",
    )
    parser.add_argument("--version", action="version", version=f"mathemb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    def add(name, help_text, handler, check=None):
        """The subcommand's parser; check(args) runs its cross-flag rules after parsing."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config file; flags given explicitly win")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved configuration and exit")
        p.set_defaults(handler=handler, check=check)
        return p

    add("tokenize", "read LaTeX lines on stdin, write space-joined tokens", _cmd_tokenize)

    p = add("ingest", "build a collection store from a JSON-lines collection file", _cmd_ingest)
    p.add_argument("--collection", required=True, help="input JSON-lines collection")
    p.add_argument("--out", required=True, help="output collection store")
    p.add_argument("--stopwords", default=None, help="optional stopword file")

    p = add("filter", "keep training-eligible formulae from a collection store", _cmd_filter)
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--out", required=True, help="output training corpus")

    for mode, help_text, dim in (
            ("symbol2vec", "train symbol vectors (CBOW, negative sampling)", 100),
            ("formula2vec", "train formula vectors (PV-DM)", 300)):
        p = add(f"train-{mode}", help_text, _cmd_train, check=_training_config)
        p.add_argument("--corpus", required=True, help="training corpus file")
        p.add_argument("--out", required=True, help="model file prefix")
        _add_training_flags(p, default_dim=dim)

    p = add("neighbors", "nearest symbols by cosine, as TSV", _cmd_neighbors)
    p.add_argument("--model", required=True, help="model file prefix")
    p.add_argument("--symbol", action="append", default=None,
                   help="query surface; repeatable; default: all")
    p.add_argument("--k", type=int, default=8, action=_Checked, must="be >= 1",
                   help="neighbors per symbol (default 8)")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = add("pca", "2-D principal-component coordinates of symbol vectors, as TSV", _cmd_pca)
    p.add_argument("--model", required=True, help="model file prefix")
    p.add_argument("--components", type=int, default=2, action=_Checked, must="be >= 1",
                   help="principal components kept (default 2)")
    p.add_argument("--l2-normalize", action="store_true",
                   help="length-normalize vectors before projecting")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")

    p = add("index-text", "build the text index for the language model", _cmd_index_text)
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--out", required=True, help="output index file")
    p.add_argument("--mu", type=float, default=2000.0, action=_Checked, must="be finite and > 0",
                   help="Dirichlet smoothing mass (default 2000)")

    p = add("search", "rank pages for every query, TREC run output", _cmd_search)
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--queries", required=True, help="JSON-lines query file")
    p.add_argument("--method", required=True, choices=["formula2vec", "lm", "combined"],
                   help="ranking signal: formula vectors, text, or both")
    p.add_argument("--model", default=None, help="model prefix (formula2vec/combined)")
    p.add_argument("--index", default=None, help="text index file (lm/combined)")
    p.add_argument("--alpha", type=float, default=4.0, action=_Checked, must="be finite and >= 0",
                   help="text weight in the combined score (default 4)")
    p.add_argument("--mu", type=float, default=None, action=_Checked, must="be finite and > 0",
                   help="Dirichlet smoothing mass (default: the one index-text stored)")
    p.add_argument("--top", type=int, default=1000, action=_Checked, must="be >= 1",
                   help="pages kept per query (default 1000)")
    p.add_argument("--steps", type=int, default=50, action=_Checked, must="be >= 1",
                   help="inference passes for unseen formulae (default 50)")
    p.add_argument("--tag", default="mathemb", action=_Checked,
                   must="be non-empty and hold no whitespace", help="run tag (default mathemb)")
    p.add_argument("--out", required=True, help="output run file")

    evaluate = add("evaluate", "score a run file against qrels", _cmd_evaluate)
    evaluate.add_argument("--run", required=True, help="TREC run file")
    evaluate.add_argument("--qrels", required=True, help="TREC qrels file")

    p = add("sweep", "train/rank/evaluate across dimensions or alpha values", _cmd_sweep,
            check=_check_sweep_values)
    p.add_argument("--axis", required=True, choices=["dimension", "alpha"],
                   help="swept parameter: formula vector dimension or the combined "
                        "method's alpha")
    p.add_argument("--values", required=True, action=_Checked, must="hold at least one value",
                   help="comma-separated values")
    p.add_argument("--store", required=True, help="collection store")
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--queries", required=True, help="JSON-lines query file")
    p.add_argument("--qrels", required=True, help="TREC qrels file")
    p.add_argument("--mu", type=float, default=2000.0, action=_Checked, must="be finite and > 0",
                   help="Dirichlet smoothing mass on the alpha axis (default 2000)")
    p.add_argument("--steps", type=int, default=50, action=_Checked, must="be >= 1",
                   help="inference passes for unseen formulae (default 50)")
    for q in (evaluate, p):  # evaluate's last flags; sweep's before the training flags
        q.add_argument("--ks", default="30,50", action=_Checked,
                       must="be one or more integers >= 1",
                       help="cutoffs for NDCG@k/P@k (default 30,50)")
        q.add_argument("--threshold", type=int, default=1, action=_Checked, must="be >= 1",
                       help="relevance binarization grade (default 1)")
        q.add_argument("--out", default=None, help="output TSV (default stdout)")
    _add_training_flags(p, default_dim=300)

    return parser, sub.choices


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
    """Artifact meta comment fields, keys sorted; seed defaults to --seed."""
    cfg = {k: v for k, v in _resolved_config(args).items() if k not in _PATH_DESTS}
    seed = cfg.get("seed") if seed is None else seed
    meta = {"config": artifacts.to_json(cfg), "tool": "mathemb", "version": __version__}
    if seed is not None:
        meta["seed"] = seed
    return dict(sorted(meta.items()))


def _write_or_print(text: str, out_path):
    if out_path:
        artifacts.write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _check_sweep_values(args) -> None:
    """The training flags' rules, then sweep --values's, which depends on --axis."""
    _training_config(args)
    must = "be integers >= 1" if args.axis == "dimension" else "be finite and >= 0"
    if not _passes(lambda raw: all(map(_RULES[must], _split(raw))), args.values):
        raise ValueError(f"--values must {must}")


def _training_config(args):
    """The training flags as a TrainingConfig, in symbol2vec mode for
    train-symbol2vec, else formula2vec; ValueError names a bad flag."""
    from .embeddings import Mode, TrainingConfig

    mode = Mode.SYMBOL2VEC if args.command == "train-symbol2vec" else Mode.FORMULA2VEC
    return TrainingConfig(dim=args.dim, window=args.window, negatives=args.negatives,
                          epochs=args.epochs, lr_start=args.lr_start, lr_end=args.lr_end,
                          seed=args.seed, mode=mode)


# ---------------------------------------------------------------------------
# handlers


def _cmd_tokenize(args) -> int:
    from .tokenizer import tokenize_surfaces

    # bytes, so that a line that is not UTF-8 fails whatever the locale
    for line_no, line in enumerate(sys.stdin.buffer, start=1):
        try:
            surfaces = tokenize_surfaces(line)
        except MathembError as exc:
            raise type(exc)(f"stdin:{line_no}: {exc}") from None
        sys.stdout.write(" ".join(surfaces) + "\n")
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
    from .embeddings import Mode, save_table, train_formula2vec, train_symbol2vec

    config = _training_config(args)
    corpus = load_training_corpus(args.corpus)
    vocab = build_vocabulary(corpus, min_count=args.min_count, power=args.sample_power)
    trainer = train_symbol2vec if config.mode is Mode.SYMBOL2VEC else train_formula2vec
    table = trainer(corpus, vocab, config)
    save_table(table, args.out)
    loss = f"{table.epoch_losses[-1]:.4f}" if table.epoch_losses else "n/a"
    print(f"vocab={len(vocab)} dim={config.dim} epochs={config.epochs} "
          f"final_epoch_loss={loss} skipped_short={table.skipped_short}")
    return 0


def _cmd_neighbors(args) -> int:
    from .analysis import neighbor_lists
    from .embeddings import load_table

    table = load_table(args.model)
    lines = ["surface\trank\tneighbor\tcosine"]
    for nl in neighbor_lists(table, args.symbol or table.vocab.surfaces, args.k):
        for rank, (other, cos) in enumerate(nl.neighbors, start=1):
            lines.append(f"{nl.query}\t{rank}\t{other}\t{cos:.6f}")
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
    from .retrieval import FormulaVectorProvider, RankMethod, TextIndex, rank_queries, write_run

    method = RankMethod(args.method)
    text, formula = method is not RankMethod.FORMULA2VEC, method is not RankMethod.LM
    if text and not args.index:
        raise ValueError(f"--index is required for method {method.value}")
    if formula and not args.model:
        raise ValueError(f"--model is required for method {method.value}")
    coll = load_collection(args.store)
    queries = ingest_queries(args.queries)
    provider = index = None
    if text:
        index = TextIndex.load(args.index)
        pages, indexed = {p.page_id for p in coll.pages}, set(index.page_ids)
        if pages != indexed:
            raise MalformedRecord(
                f"{args.index} does not index the pages of {args.store}: "
                f"{len(pages - indexed)} pages only in the store, "
                f"{len(indexed - pages)} only in the index")
        if args.mu is None:
            args.mu = index.mu
    if formula:
        provider = FormulaVectorProvider(load_table(args.model), infer_steps=args.steps)
    ranked = rank_queries(queries, coll, method, provider, index, args.alpha, args.mu)
    for rl in ranked:
        if rl.no_formulae:
            print(f"warning: query {rl.query_id} has no usable formulae", file=sys.stderr)
    seed = provider.table.config.seed if provider else None
    write_run(ranked, args.out, tag=args.tag, top=args.top, meta=_meta(args, seed=seed))
    print(f"queries={len(queries)} pages={coll.page_count} method={method.value}")
    return 0


def _cmd_evaluate(args) -> int:
    from .evaluation import evaluate_run, report_tsv

    report = evaluate_run(args.run, args.qrels, ks=_split(args.ks, int),
                          threshold=args.threshold)
    for qid in report.queries_skipped:
        print(f"warning: query {qid} missing from qrels, skipped", file=sys.stderr)
    for qid in report.queries_missing:
        print(f"warning: judged query {qid} missing from the run, scored 0", file=sys.stderr)
    _write_or_print(report_tsv(report, _meta(args)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .corpus import ingest_queries, load_collection, load_training_corpus
    from .evaluation import SweepAxis, parse_qrels, sweep, sweep_tsv

    axis = SweepAxis(args.axis)
    config = _training_config(args)
    ks = _split(args.ks, int)
    results = sweep(
        axis, _split(args.values),
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_argv_with_config(argv, args, commands[args.command]))
        if args.check:
            args.check(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        print(json.dumps(_resolved_config(args), sort_keys=True))
        return 0
    try:
        return args.handler(args)
    except (MathembError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
