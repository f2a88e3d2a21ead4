"""Page ranking for mixed keyword+formula queries.

Three methods share one entry point, rank_pages:

  * formula2vec: every query formula is matched against every page formula by
    cosine of their vectors; a page scores the mean over its formulae, and the
    query scores the mean of those means.  Pages without formulae get a fixed
    floor of -1, below any achievable cosine mean.
  * lm: Dirichlet-smoothed query likelihood over page text,
    p(w|d) = (tf(w,d) + mu * p(w|C)) / (|d| + mu), summed as log probabilities.
  * combined: both raw score sets are min-max normalized over the candidate
    set, then merged as C = (F + alpha * T) / (1 + alpha).

Formula vectors come from the trained table when the formula was part of the
training corpus and are inferred (deterministically, seeded by content)
otherwise, so unfiltered page formulae and unseen query formulae still match.
A search resolves each formula once: FormulaVectorProvider infers all unseen
contents of a batch together and memoises them, and FormulaMatrix holds a
collection's page formulae as one matrix of L2-normalised distinct rows with
page segments.  A query then scores every page at once: the cosines of the
distinct rows with the query vectors (one matrix product), gathered per page
formula, summed per page segment (np.add.reduceat) and averaged.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import artifacts
from .analysis import unit_rows
from .corpus import Collection, Page, Query
from .embeddings import EmbeddingTable, Mode, infer_vectors
from .errors import (
    DimensionMismatch,
    MalformedRecord,
    NegativeAlpha,
    NoQueryFormulae,
    UnknownPage,
    UnknownTokensOnly,
)
from .tokenizer import TokenizedFormula

# Scoring does not call these two; they stay importable from this module
# because the benchmark's tracer (perfbench/spans.py) wraps them here by name.
from .analysis import cosine  # noqa: F401
from .embeddings import infer_vector  # noqa: F401

TEXTINDEX_HEADER = "MATHEMB-TEXTINDEX v1"
NO_FORMULA_FLOOR = -1.0
DEFAULT_MU = 2000.0
DEFAULT_ALPHA = 4.0
DEFAULT_INFER_STEPS = 50


class RankMethod(Enum):
    FORMULA2VEC = "formula2vec"
    LM = "lm"
    COMBINED = "combined"


# ---------------------------------------------------------------------------
# text side


@dataclass
class TextIndex:
    """Term statistics backing the smoothed query-likelihood model."""

    page_tf: dict[str, Counter]
    page_len: dict[str, int]
    coll_tf: Counter
    coll_len: int
    mu: float = DEFAULT_MU

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be > 0")

    @classmethod
    def build(cls, collection: Collection, mu: float = DEFAULT_MU) -> "TextIndex":
        page_tf: dict[str, Counter] = {}
        page_len: dict[str, int] = {}
        coll_tf: Counter = Counter()
        for p in collection.pages:
            tf = Counter(p.text_terms)
            page_tf[p.page_id] = tf
            page_len[p.page_id] = len(p.text_terms)
            coll_tf.update(tf)
        return cls(page_tf, page_len, coll_tf, sum(page_len.values()), mu)

    def save(self, path, meta: dict | None = None) -> None:
        """Write the index; meta keys go into its comment line in order."""
        body = [artifacts.to_json(
            {"collection_length": self.coll_len, "mu": self.mu, "pages": len(self.page_tf)})]
        body += [artifacts.to_json({"page_id": page_id, "length": self.page_len[page_id],
                                    "tf": dict(sorted(self.page_tf[page_id].items()))})
                 for page_id in self.page_tf]
        artifacts.write(path, body, TEXTINDEX_HEADER, meta)

    @classmethod
    def load(cls, path) -> "TextIndex":
        """Read an index, checking that each page's length is the sum of its
        term counts and the collection length the sum of the page lengths."""
        stats: dict = {}
        page_tf: dict[str, Counter] = {}
        page_len: dict[str, int] = {}

        def record(rec) -> None:
            if not stats:
                stats.update(coll_len=int(rec["collection_length"]), mu=float(rec["mu"]))
                if not stats["mu"] > 0:
                    raise MalformedRecord(f"mu must be > 0, got {stats['mu']}")
                return
            page_id, tf, length = rec["page_id"], Counter(rec["tf"]), int(rec["length"])
            if length != tf.total():
                raise MalformedRecord(f"page {page_id!r} has length {length}, but its term "
                                      f"counts sum to {tf.total()}")
            page_tf[page_id] = tf
            page_len[page_id] = length

        artifacts.read_records(path, record, TEXTINDEX_HEADER)
        if not stats:
            raise MalformedRecord(f"{path}: missing collection statistics line")
        if stats["coll_len"] != sum(page_len.values()):
            raise MalformedRecord(f"{path}: collection_length {stats['coll_len']} is not the "
                                  f"sum of the page lengths, {sum(page_len.values())}")
        coll_tf = Counter()
        for tf in page_tf.values():
            coll_tf.update(tf)
        return cls(page_tf, page_len, coll_tf, stats["coll_len"], stats["mu"])


def lm_score(keywords, page_id: str, index: TextIndex, mu: float | None = None) -> float:
    """Dirichlet-smoothed log query likelihood of a page.

    Terms absent from the whole collection are skipped (contribute 0); an
    empty keyword list scores 0 for every page.
    """
    if page_id not in index.page_tf:
        raise UnknownPage(page_id)
    mu = index.mu if mu is None else mu
    if mu <= 0:
        raise ValueError("mu must be > 0")
    tf = index.page_tf[page_id]
    length = index.page_len[page_id]
    score = 0.0
    for w in keywords:
        cf = index.coll_tf.get(w, 0)
        if cf == 0:
            continue
        p_coll = cf / index.coll_len
        score += math.log((tf.get(w, 0) + mu * p_coll) / (length + mu))
    return score


# ---------------------------------------------------------------------------
# formula side


def _content_seed(base_seed: int, formula: TokenizedFormula) -> int:
    digest = hashlib.sha256(
        f"{base_seed}|{' '.join(formula.surfaces)}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class FormulaVectorProvider:
    """Resolves formulae to vectors: the trained row if the formula was in
    the training corpus, else a content-seeded inference, memoised by
    content (the space-joined surfaces)."""

    table: EmbeddingTable
    infer_steps: int = DEFAULT_INFER_STEPS
    infer_lr: float | None = None
    base_seed: int | None = None
    _inferred: dict[str, np.ndarray | None] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.table.config.mode is not Mode.FORMULA2VEC:
            raise ValueError("provider needs a table trained in formula2vec mode")
        if self.infer_lr is None:
            self.infer_lr = self.table.config.lr_start
        if self.base_seed is None:
            self.base_seed = self.table.config.seed

    def vectors_for(self, formulae) -> list[np.ndarray | None]:
        """The vector of each formula, None where every token is out of
        vocabulary.  Unseen contents not yet memoised are inferred together
        in one infer_vectors call."""
        formulae = list(formulae)
        trained = [self.table.formula_vector(f.id) for f in formulae]
        keys = [" ".join(f.surfaces) for f in formulae]
        pending = {}
        for f, key, vec in zip(formulae, keys, trained):
            if vec is None and key not in self._inferred:
                pending.setdefault(key, f)
        if pending:
            inferred = infer_vectors(
                [f.tokens for f in pending.values()], self.table,
                [_content_seed(self.base_seed, f) for f in pending.values()],
                steps=self.infer_steps, lr=self.infer_lr)
            self._inferred.update(zip(pending, inferred))
        return [self._inferred[key] if vec is None else vec
                for key, vec in zip(keys, trained)]

    def vector_for(self, formula: TokenizedFormula) -> np.ndarray | None:
        return self.vectors_for([formula])[0]


def _resolve(provider, formulae) -> list[np.ndarray | None]:
    """Vectors from a FormulaVectorProvider in one batch, or from any object
    with vector_for(formula), one call per formula."""
    if isinstance(provider, FormulaVectorProvider):
        return provider.vectors_for(formulae)
    return [provider.vector_for(f) for f in formulae]


def _query_vectors(query: Query, provider) -> list[np.ndarray]:
    """Vectors of the query formulae that resolve; the others drop out."""
    return [v for v in _resolve(provider, query.formulae) if v is not None]


@dataclass
class FormulaMatrix:
    """Page formulae resolved once, for scoring many queries with matrix products.

    unit holds the distinct resolved vectors as L2-normalised rows.  The
    resolved formulae of the scored pages (those with at least one) follow
    one another in page order: rows[j] is the unit row of the j-th, and
    starts/counts delimit each scored page's segment.  scored holds the
    positions of those pages in page_ids.
    """

    page_ids: list[str]
    unit: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    scored: np.ndarray

    @classmethod
    def build(cls, pages, collection: Collection, provider, queries=()) -> "FormulaMatrix":
        """Resolve every formula of the pages through provider (any object
        with vector_for, or a FormulaVectorProvider, which infers the unseen
        ones in one batch).  Page formulae that do not resolve drop out.

        The formulae of queries join the same batch, so a provider infers
        every unseen formula of a search at once and memoises them for
        rank_pages."""
        pages = list(pages)
        formulae = [collection.formulas[fid] for p in pages for fid in p.formula_ids]
        vectors = _resolve(provider, formulae + [f for q in queries for f in q.formulae])
        vectors = vectors[:len(formulae)]
        resolved = [vec is not None for vec in vectors]
        page_of = np.repeat(np.arange(len(pages)), [len(p.formula_ids) for p in pages])
        scored, starts, counts = np.unique(page_of[resolved], return_index=True,
                                           return_counts=True)
        unit, rows = np.empty((0, 0)), np.empty(0, dtype=np.intp)
        if any(resolved):
            distinct, rows = np.unique(
                np.array([vec for vec in vectors if vec is not None], dtype=np.float64),
                axis=0, return_inverse=True)
            unit, rows = unit_rows(distinct), rows.reshape(-1)
        return cls([p.page_id for p in pages], unit, rows, starts, counts, scored)

    def scores(self, query_vectors) -> np.ndarray:
        """Per page, the mean over the query vectors of the page's mean
        formula cosine; NO_FORMULA_FLOOR for pages without a resolved formula.

        Each distinct page vector is scored once against every query vector
        and the cosines are gathered per page formula, so pages whose
        formulae resolve to identical vectors get bit-identical scores.
        """
        out = np.full(len(self.page_ids), NO_FORMULA_FLOOR)
        if len(self.scored):
            q = unit_rows(np.asarray(query_vectors, dtype=np.float64))
            if q.shape[1] != self.unit.shape[1]:
                raise DimensionMismatch(
                    f"query vectors of dim {q.shape[1]}, page vectors of dim {self.unit.shape[1]}")
            cos = np.clip(self.unit @ q.T, -1.0, 1.0)[self.rows]
            page_means = np.add.reduceat(cos, self.starts, axis=0) / self.counts[:, np.newaxis]
            out[self.scored] = page_means.sum(axis=1) / len(q)
        return out


def formula_page_score(query: Query, page: Page, provider,
                       collection: Collection) -> float:
    """Mean over query formulae of the page's mean formula cosine.

    provider is any object with vector_for(formula).  Formulae that cannot
    be resolved to a vector (all tokens unknown) drop out of their mean; a
    page with no resolvable formula scores the -1 floor.  A query without
    formulae raises NoQueryFormulae, one whose formulae all fail to resolve
    UnknownTokensOnly.
    """
    if not query.formulae:
        raise NoQueryFormulae(query.query_id)
    query_vectors = _query_vectors(query, provider)
    if not query_vectors:
        raise UnknownTokensOnly(f"no formula of query {query.query_id} has a known token")
    return float(FormulaMatrix.build([page], collection, provider).scores(query_vectors)[0])


def combined_score(f_norm: float, t_norm: float, alpha: float) -> float:
    """C = (F + alpha*T) / (1 + alpha) over normalized scores."""
    if alpha < 0:
        raise NegativeAlpha(f"alpha={alpha}")
    return (f_norm + alpha * t_norm) / (1.0 + alpha)


# ---------------------------------------------------------------------------
# ranking


@dataclass
class PageScore:
    page_id: str
    F: float
    T: float
    C: float


@dataclass
class RankedList:
    query_id: str
    entries: list[PageScore]   # descending by C, ties by page_id
    # a formula method ranked a query that has no usable (resolvable) formula
    no_formulae: bool = False

    def page_ids(self) -> list[str]:
        return [e.page_id for e in self.entries]


def _minmax(raw: dict[str, float]) -> dict[str, float]:
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        return {k: 0.0 for k in raw}
    span = hi - lo
    return {k: (v - lo) / span for k, v in raw.items()}


def rank_pages(query: Query, collection: Collection, method: RankMethod,
               provider: FormulaVectorProvider | None = None,
               index: TextIndex | None = None,
               alpha: float = DEFAULT_ALPHA, mu: float | None = None,
               formulas: FormulaMatrix | None = None) -> RankedList:
    """Score every page in the collection and sort descending.

    For single-signal methods the combined field C mirrors the active raw
    score; for COMBINED, F and T are the min-max normalized scores and
    C = (F + alpha*T)/(1+alpha) exactly.  formulas is the collection's
    FormulaMatrix for provider; built here when not given, so a caller that
    ranks many queries builds it once and passes it.

    A query with no usable formula (none at all, or none that resolves) is
    flagged no_formulae: FORMULA2VEC returns no entries for it, and COMBINED
    takes F as constant, 0 after min-max, so it orders pages as LM does.
    """
    uses_formulae = method in (RankMethod.FORMULA2VEC, RankMethod.COMBINED)
    if uses_formulae and provider is None:
        raise ValueError(f"{method.value} ranking needs formula vectors")
    if method in (RankMethod.LM, RankMethod.COMBINED) and index is None:
        raise ValueError(f"{method.value} ranking needs a text index")
    if alpha < 0:
        raise NegativeAlpha(f"alpha={alpha}")

    raw_f: dict[str, float] = {}
    raw_t: dict[str, float] = {}
    no_formulae = False
    if uses_formulae:
        query_vectors = _query_vectors(query, provider)
        no_formulae = not query_vectors
        if no_formulae:
            if method is RankMethod.FORMULA2VEC:
                return RankedList(query.query_id, [], no_formulae=True)
            raw_f = {page.page_id: 0.0 for page in collection.pages}
        else:
            if formulas is None:
                formulas = FormulaMatrix.build(collection.pages, collection, provider)
            raw_f = dict(zip(formulas.page_ids, formulas.scores(query_vectors).tolist()))
    if method in (RankMethod.LM, RankMethod.COMBINED):
        for page in collection.pages:
            raw_t[page.page_id] = lm_score(query.keywords, page.page_id, index, mu=mu)

    entries = []
    if method is RankMethod.FORMULA2VEC:
        entries = [PageScore(pid, f, 0.0, f) for pid, f in raw_f.items()]
    elif method is RankMethod.LM:
        entries = [PageScore(pid, 0.0, t, t) for pid, t in raw_t.items()]
    else:
        f_norm = _minmax(raw_f)
        t_norm = _minmax(raw_t)
        entries = [
            PageScore(pid, f_norm[pid], t_norm[pid],
                      combined_score(f_norm[pid], t_norm[pid], alpha))
            for pid in raw_f
        ]
    entries.sort(key=lambda e: (-e.C, e.page_id))
    return RankedList(query.query_id, entries, no_formulae=no_formulae)


def write_run(ranked_lists, path, tag: str = "mathemb", top: int = 1000,
              meta: dict | None = None) -> None:
    """TREC run format: query_id Q0 page_id rank score tag.  meta keys go into
    the comment line in order."""
    artifacts.write(path, [f"{rl.query_id} Q0 {entry.page_id} {rank} {entry.C:.6f} {tag}"
                           for rl in ranked_lists
                           for rank, entry in enumerate(rl.entries[:top], start=1)], meta=meta)
