"""Shared fixtures: the bundled corpus, synthetic training sets, and
session-scoped trained tables (training is the slow part, so reuse them)."""

import pathlib
import sys

import numpy as np
import pytest

from mathemb.corpus import (
    Collection, Page, Query, build_vocabulary, filter_corpus, ingest_pages,
    ingest_queries, normalize_text,
)
from mathemb.embeddings import Mode, TrainingConfig, train_formula2vec, train_symbol2vec
from mathemb.retrieval import TextIndex
from mathemb.tokenizer import TokenizedFormula, tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from run_pipeline import DIM, EPOCHS, FIXTURE as FIXTURE_DIR, LR_START, run_pipeline  # noqa: E402

TEST_DATA = pathlib.Path(__file__).resolve().parent / "data"

COLLECTION_PATH = FIXTURE_DIR / "collection.jsonl"
QUERIES_PATH = FIXTURE_DIR / "queries.jsonl"
QRELS_PATH = FIXTURE_DIR / "qrels.txt"

# the pipeline's formula2vec settings; window, negatives and lr_end are the CLI's defaults
FIXTURE_F2V = dict(dim=DIM, window=5, negatives=5, epochs=EPOCHS,
                   lr_start=LR_START, lr_end=0.0001, mode=Mode.FORMULA2VEC)


@pytest.fixture(scope="session")
def fixture_collection():
    return ingest_pages(COLLECTION_PATH)


@pytest.fixture(scope="session")
def fixture_queries():
    return ingest_queries(QUERIES_PATH)


@pytest.fixture(scope="session")
def fixture_train_corpus(fixture_collection):
    return filter_corpus(fixture_collection.formulas.values())


@pytest.fixture(scope="session")
def fixture_vocab(fixture_train_corpus):
    return build_vocabulary(fixture_train_corpus)


@pytest.fixture(scope="session")
def fixture_index(fixture_collection):
    return TextIndex.build(fixture_collection, mu=2000.0)


@pytest.fixture(scope="session")
def trained_symbol_table(fixture_train_corpus, fixture_vocab):
    cfg = TrainingConfig(dim=32, window=5, negatives=5, epochs=20,
                         lr_start=0.05, lr_end=0.0001, seed=7, mode=Mode.SYMBOL2VEC)
    return train_symbol2vec(fixture_train_corpus, fixture_vocab, cfg)


@pytest.fixture(scope="session")
def trained_formula_table(fixture_train_corpus, fixture_vocab):
    cfg = TrainingConfig(seed=7, **FIXTURE_F2V)
    return train_formula2vec(fixture_train_corpus, fixture_vocab, cfg)


def run_full_pipeline(out_dir, seed=7, f2v_dim=DIM, f2v_epochs=EPOCHS, f2v_lr=LR_START,
                      sweep_dims="10,50,100", sweep_alphas="0,1,4,1e6"):
    """scripts/run_pipeline.py's pipeline into out_dir; returns {name: path}.

    Raises StepFailed, naming the failing command, at its first non-zero exit.
    """
    return run_pipeline(out_dir, seed, f2v_dim, f2v_epochs, f2v_lr, sweep_dims, sweep_alphas)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """The fixture pipeline's artifacts, trained small and swept over few values."""
    out = tmp_path_factory.mktemp("pipeline")
    return run_full_pipeline(out, f2v_dim=32, f2v_epochs=10,
                             sweep_dims="8,16", sweep_alphas="0,4")


# ---------------------------------------------------------------------------
# synthetic corpora


CLUSTER_A = ["\\sin", "\\cos", "\\tan", "\\cot", "\\sec", "\\csc"]
CLUSTER_B = ["\\alpha", "\\beta", "\\gamma", "\\delta", "\\epsilon", "\\mu"]
CLUSTER_GLUE = ["+", "=", "1", "2"]


def make_cluster_corpus(corpus_seed=1234, n_formulas=60, length=9):
    """Two disjoint co-occurrence clusters plus shared glue symbols."""
    rng = np.random.default_rng(corpus_seed)
    formulas = []
    for i in range(n_formulas):
        pool = CLUSTER_A if i % 2 == 0 else CLUSTER_B
        toks = []
        for _ in range(length):
            if rng.random() < 0.7:
                toks.append(pool[rng.integers(len(pool))])
            else:
                toks.append(CLUSTER_GLUE[rng.integers(len(CLUSTER_GLUE))])
        formulas.append(TokenizedFormula(f"s{i}", tokenize(" ".join(toks))))
    return formulas


# Four topics whose formula families use disjoint symbol namespaces; each
# topic gets a relevant page R (keywords + family formulas), a keyword
# distractor DT (same keyword counts, slightly shorter text, alien formula)
# and a formula distractor DF (family formulas, no keywords).
_FAMILIES = {
    "trig": ["\\sin ( x + y ) = \\sin x \\cos y + \\cos x \\sin y",
             "\\cos ( x - y ) = \\cos x \\cos y + \\sin x \\sin y",
             "\\tan ( x + y ) = \\frac { \\tan x + \\tan y } { 1 - \\tan x \\tan y }"],
    "greek": ["N _ t = N _ 0 e ^ { - \\lambda t }",
              "\\mu \\lambda = \\alpha \\lambda + \\beta e ^ { - \\lambda t }",
              "\\lambda t = \\log \\alpha - \\log \\beta + \\mu"],
    "calc": ["\\int _ 0 ^ \\infty f ( u ) d u = \\frac { \\pi } { 2 }",
             "\\lim _ { u \\to \\infty } \\frac { f ( u ) } { g ( u ) } = 1",
             "\\int _ 0 ^ 1 g ( v ) d v = g ( u ) + \\pi"],
    "matrix": ["z = \\frac { a d - b c } { a + d }",
               "\\begin{pmatrix} a & b \\\\ c & d \\end{pmatrix} ^ 2 = a ^ 2 + b c",
               "\\begin{vmatrix} a & b \\\\ c & d \\end{vmatrix} = a d - b c + z"],
}
_TOPICS = [("trig", ("harmonic", "oscillation")),
           ("greek", ("isotope", "halflife")),
           ("calc", ("convergence", "quadrature")),
           ("matrix", ("determinant", "cofactor"))]
_PAD = ["background", "material", "overview", "context", "reading", "reference",
        "history", "preface", "appendix", "glossary"]


def build_complementary_collection():
    """Collection + queries + qrels where text and formula signals must be
    combined to rank the relevant page first.  Returns (coll, queries, qrels)."""
    coll = Collection()
    queries = []
    qrels = {}

    def add_page(pid, text, latexes):
        fids = []
        for k, latex in enumerate(latexes):
            fid = f"{pid}#f{k}"
            coll.formulas[fid] = TokenizedFormula(fid, tokenize(latex))
            fids.append(fid)
        coll.pages.append(Page(pid, pid, normalize_text(text), fids))

    for t, (fam, (k1, k2)) in enumerate(_TOPICS):
        other = _TOPICS[(t + 1) % len(_TOPICS)][0]
        r_text = (f"the {k1} and {k2} chapter explains every {k1} example with a "
                  f"worked {k2} " + " ".join(_PAD[:6 + t]))
        dt_text = (f"the {k1} and {k2} appendix tabulates each {k1} case beside "
                   f"its {k2} " + " ".join(_PAD[:4 + t]))
        df_text = ("unrelated travel diary describing markets rivers and bridges "
                   + " ".join(_PAD[6:10 + t]))
        add_page(f"R_{fam}", r_text, [_FAMILIES[fam][0], _FAMILIES[fam][1]])
        add_page(f"DT_{fam}", dt_text, [_FAMILIES[other][1]])
        add_page(f"DF_{fam}", df_text, [_FAMILIES[fam][0], _FAMILIES[fam][2]])
        qid = f"cq{t + 1}"
        queries.append(Query(qid, [k1, k2],
                             [TokenizedFormula(f"{qid}#f0", tokenize(_FAMILIES[fam][0]))]))
        qrels[qid] = {f"R_{fam}": 2}
    return coll, queries, qrels
