"""Page ranking for mixed keyword+formula queries.

Three methods share one entry point, rank_queries:

  * formula2vec: every query formula is matched against every page formula by
    cosine of their vectors; a page scores the mean over its formulae, and the
    query scores the mean of those means.  Pages without formulae get a fixed
    floor of -1, below any achievable cosine mean.
  * lm: Dirichlet-smoothed query likelihood over page text,
    p(w|d) = (tf(w,d) + mu * p(w|C)) / (|d| + mu), summed as log probabilities.
  * combined: both raw score sets are min-max normalized over the candidate
    set, then merged as C = (F + alpha * T) / (1 + alpha).

Ranking runs on arrays: TextIndex holds the term counts as a page-major CSR
(the file keeps one JSON record per page), one lm_score call per query
scores every page with one vector expression per keyword, and np.lexsort
orders pages by (-C, page_id), the ids as integer ranks (string_rank).

Formula vectors come from the trained table when the formula was part of the
training corpus and are inferred (deterministically, seeded by content)
otherwise, so unfiltered page formulae and unseen query formulae still match.
A search ranks all its queries in one rank_queries call, which resolves each
formula once: FormulaVectorProvider resolves every page and query formula in
one batch, inferring the unseen contents together and memoising them, and
FormulaMatrix holds the page formulae as one matrix of L2-normalised distinct
rows with page segments.  A query then scores every page at once: the cosines
of the distinct rows with the query vectors (one matrix product), gathered per
page formula, summed per page segment (np.add.reduceat) and averaged.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count, islice

import numpy as np

from . import artifacts
from .artifacts import check_id
from .analysis import string_rank, unit_rows
from .corpus import Collection, Page, Query
from .embeddings import EmbeddingTable, Mode, infer_vectors
from .errors import (
    DimensionMismatch,
    DuplicatePageId,
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


class TextIndex:
    """Term statistics backing the smoothed query-likelihood model, as arrays.

    Built from (page_id, {term: count}) pairs in page order: page_ids keeps
    that order and term_id maps each term to its id.  The counts form one
    page-major CSR, page i holding the terms term_ids[offsets[i]:offsets[i+1]]
    with their counts in tf; page_len and coll_tf are the counts summed per
    page and per term, coll_len their total.
    """

    def __init__(self, pages, mu: float = DEFAULT_MU):
        if not 0 < mu < math.inf:
            raise ValueError("mu must be finite and > 0")
        pages = list(pages)
        self.mu, self.page_ids = mu, [page_id for page_id, _ in pages]
        self.page_row = {page_id: i for i, page_id in enumerate(self.page_ids)}
        terms = list(chain.from_iterable(tf for _, tf in pages))
        self.term_id: dict[str, int] = dict(zip(dict.fromkeys(terms), count()))
        self.term_ids = np.array(list(map(self.term_id.__getitem__, terms)), dtype=np.intp)
        self.tf = np.array(list(chain.from_iterable(tf.values() for _, tf in pages)), np.int64)
        self.offsets = np.cumsum([0, *(len(tf) for _, tf in pages)])
        self.entry_page = np.repeat(np.arange(len(pages)), np.diff(self.offsets))
        self.page_len = np.bincount(self.entry_page, self.tf, len(pages)).astype(np.int64)
        self.coll_tf = np.bincount(self.term_ids, self.tf, len(self.term_id)).astype(np.int64)
        self.coll_len = int(self.page_len.sum())

    @classmethod
    def build(cls, collection: Collection, mu: float = DEFAULT_MU) -> "TextIndex":
        return cls(((p.page_id, Counter(p.text_terms)) for p in collection.pages), mu)

    def save(self, path, meta: dict | None = None) -> None:
        """Write the index; meta keys go into its comment line in order."""
        terms, bounds = list(self.term_id), self.offsets.tolist()
        body = [artifacts.to_json(
            {"collection_length": self.coll_len, "mu": self.mu, "pages": len(self.page_ids)})]
        for page_id, length, start, end in zip(self.page_ids, self.page_len.tolist(),
                                               bounds, bounds[1:]):
            tf = zip(self.term_ids[start:end].tolist(), self.tf[start:end].tolist())
            body.append(artifacts.to_json(
                {"page_id": page_id, "length": length, "tf": {terms[t]: c for t, c in tf}}))
        artifacts.write(path, body, TEXTINDEX_HEADER, meta)

    @classmethod
    def load(cls, path) -> "TextIndex":
        """Read an index, checking its page ids, counts, lengths and statistics
        by the rules of artifacts.py, that each page's counts sum to its length
        and that collection_length and pages are what the page records give."""
        stats: dict = {}
        pages: dict[str, dict] = {}

        def record(rec) -> None:
            if not stats:
                stats.update((key, rec[key]) for key in ("collection_length", "mu", "pages"))
                if not (artifacts.finite_numbers([rec["mu"]]) and rec["mu"] > 0):
                    raise MalformedRecord(f"mu must be > 0 and finite, got {rec['mu']!r}")
                return
            page_id, tf, length = check_id(rec["page_id"], "page_id"), rec["tf"], rec["length"]
            if not isinstance(tf, dict):
                raise MalformedRecord(f"page {page_id!r}: tf must be an object")
            if page_id in pages:
                raise DuplicatePageId(f"duplicate page_id {page_id!r}")
            if not artifacts.json_integers(tf.values(), 1):
                raise MalformedRecord(f"page {page_id!r} has a count that is not an integer > 0")
            if not artifacts.json_integers([length], 0) or length != sum(tf.values()):
                raise MalformedRecord(f"page {page_id!r} has length {length!r}, but its term "
                                      f"counts sum to {sum(tf.values())}")
            pages[page_id] = tf

        artifacts.read_records(path, record, TEXTINDEX_HEADER)
        if not stats:
            raise MalformedRecord(f"{path}: missing collection statistics line")
        index = cls(pages.items(), stats["mu"])
        for key, value, what in (("collection_length", index.coll_len, "sum of the page lengths"),
                                 ("pages", len(pages), "number of page records")):
            if not artifacts.json_integers([stats[key]], 0) or stats[key] != value:
                raise MalformedRecord(f"{path}: {key} {stats[key]!r} is not the {what}, {value}")
        return index


def lm_score(keywords, page_ids, index: TextIndex, mu: float | None = None) -> np.ndarray:
    """Dirichlet-smoothed log query likelihood of each page of page_ids.

    Terms absent from the whole collection are skipped (contribute 0); an
    empty keyword list scores 0 for every page.  Each keyword adds its log
    probabilities in keyword order, taken with math.log over its distinct
    arguments (np.log can differ in the last bit), as a page-at-a-time loop would.
    """
    try:
        rows = np.array(list(map(index.page_row.__getitem__, page_ids)), dtype=np.intp)
    except KeyError as exc:
        raise UnknownPage(exc.args[0]) from None
    mu = float(index.mu if mu is None else mu)      # int64 length + an int mu can overflow
    if not 0 < mu < math.inf:
        raise ValueError("mu must be finite and > 0")
    length = index.page_len[rows]
    score = np.zeros(len(rows))
    for w in keywords:
        term = index.term_id.get(w)
        if term is None:
            continue
        hits = index.term_ids == term
        tf = np.zeros(len(index.page_ids), dtype=np.int64)
        tf[index.entry_page[hits]] = index.tf[hits]
        p_coll = int(index.coll_tf[term]) / index.coll_len
        distinct, inverse = np.unique((tf[rows] + mu * p_coll) / (length + mu),
                                      return_inverse=True)
        score += np.array([math.log(x) for x in distinct.tolist()])[inverse]
    return score


# ---------------------------------------------------------------------------
# formula side


def _content_seed(base_seed: int, formula: TokenizedFormula) -> int:
    digest = hashlib.sha256(
        f"{base_seed}|{' '.join(formula.surfaces)}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class FormulaVectorProvider:
    """Resolves formulae to vectors: the trained row if the formula was in the
    training corpus, else infer_vector's with infer_steps steps and the seed
    _content_seed(table's seed, formula), memoised by content (the surfaces)."""

    table: EmbeddingTable
    infer_steps: int = DEFAULT_INFER_STEPS
    _inferred: dict[str, np.ndarray | None] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.table.config.mode is not Mode.FORMULA2VEC:
            raise ValueError("provider needs a table trained in formula2vec mode")

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
                [_content_seed(self.table.config.seed, f) for f in pending.values()],
                steps=self.infer_steps)
            self._inferred.update(zip(pending, inferred))
        return [self._inferred[key] if vec is None else vec
                for key, vec in zip(keys, trained)]

    def vector_for(self, formula: TokenizedFormula) -> np.ndarray | None:
        return self.vectors_for([formula])[0]


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
    def build(cls, pages, vectors) -> "FormulaMatrix":
        """The matrix of pages whose formulae, in page order, resolved to
        vectors (None where one did not; it drops out)."""
        pages = list(pages)
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

    provider is any object with vectors_for(formulae).  Formulae that cannot
    be resolved to a vector (all tokens unknown) drop out of their mean; a
    page with no resolvable formula scores the -1 floor.  A query without
    formulae raises NoQueryFormulae, one whose formulae all fail to resolve
    UnknownTokensOnly.
    """
    if not query.formulae:
        raise NoQueryFormulae(query.query_id)
    ranked = rank_queries([query], Collection([page], collection.formulas),
                          RankMethod.FORMULA2VEC, provider)[0]
    if ranked.no_formulae:
        raise UnknownTokensOnly(f"no formula of query {query.query_id} has a known token")
    return float(ranked.F[0])


def combined_score(f_norm, t_norm, alpha: float):
    """C = (F + alpha*T) / (1 + alpha) over normalized scores (floats or arrays)."""
    if not 0 <= alpha < math.inf:
        raise NegativeAlpha(f"alpha must be finite and >= 0, got {alpha}")
    return (f_norm + alpha * t_norm) / (1.0 + alpha)


# ---------------------------------------------------------------------------
# ranking


PageScore = namedtuple("PageScore", "page_id F T C")


@dataclass
class RankedList:
    """One query's pages in rank order (descending C, ties by page_id), with
    the scores F, T and C of each as arrays in the same order."""

    query_id: str
    ids: list[str]
    F: np.ndarray
    T: np.ndarray
    C: np.ndarray
    # a formula method ranked a query that has no usable (resolvable) formula
    no_formulae: bool = False

    def page_ids(self) -> list[str]:
        return list(self.ids)

    @property
    def entries(self) -> list[PageScore]:
        """The ranking as PageScore tuples, built on each access."""
        return list(map(PageScore, self.ids, self.F.tolist(), self.T.tolist(), self.C.tolist()))


def _minmax(raw: np.ndarray) -> np.ndarray:
    """Scores mapped affinely onto [0, 1]; all 0 when they are constant, none when empty."""
    lo, hi = raw.min(initial=np.inf), raw.max(initial=-np.inf)
    if hi == lo:
        return np.zeros(len(raw))
    return (raw - lo) / (hi - lo)


def rank_queries(queries, collection: Collection, method: RankMethod,
                 provider: FormulaVectorProvider | None = None,
                 index: TextIndex | None = None,
                 alpha: float = DEFAULT_ALPHA, mu: float | None = None) -> list[RankedList]:
    """Score every page in the collection for each query and sort descending.

    For single-signal methods the combined field C mirrors the active raw
    score; for COMBINED, F and T are the min-max normalized scores and
    C = (F + alpha*T)/(1+alpha) exactly.  Every page and query formula is
    resolved in one provider.vectors_for call, and the page formulae form
    one FormulaMatrix.  Pages are ordered by (-C, page_id) with np.lexsort
    over (-C, string_rank(page ids)), computed once for all the queries.

    A query with no usable formula (none at all, or none that resolves) is
    flagged no_formulae: FORMULA2VEC returns no pages for it, and COMBINED
    takes F as constant, 0 after min-max, so it orders pages as LM does.
    """
    uses_formulae = method in (RankMethod.FORMULA2VEC, RankMethod.COMBINED)
    if uses_formulae and provider is None:
        raise ValueError(f"{method.value} ranking needs formula vectors")
    if method in (RankMethod.LM, RankMethod.COMBINED) and index is None:
        raise ValueError(f"{method.value} ranking needs a text index")

    queries = list(queries)
    ids = [page.page_id for page in collection.pages]
    rank, query_vectors = string_rank(ids), [[] for _ in queries]
    if uses_formulae:
        page_formulae = [collection.formulas[fid] for p in collection.pages
                         for fid in p.formula_ids]
        vectors = provider.vectors_for(page_formulae + [f for q in queries for f in q.formulae])
        formulas = FormulaMatrix.build(collection.pages, vectors[:len(page_formulae)])
        rest = iter(vectors[len(page_formulae):])
        query_vectors = [[v for v in islice(rest, len(q.formulae)) if v is not None]
                         for q in queries]
    ranked = []
    for query, qvecs in zip(queries, query_vectors):
        no_formulae = uses_formulae and not qvecs
        F = formulas.scores(qvecs) if qvecs else np.zeros(len(ids))
        if no_formulae and method is RankMethod.FORMULA2VEC:
            ranked.append(RankedList(query.query_id, [], F[:0], F[:0], F[:0], no_formulae=True))
            continue
        if method is RankMethod.FORMULA2VEC:
            C, T = F, np.zeros(len(ids))
        elif method is RankMethod.LM:
            C = T = lm_score(query.keywords, ids, index, mu=mu)
        else:
            F, T = _minmax(F), _minmax(lm_score(query.keywords, ids, index, mu=mu))
            C = combined_score(F, T, alpha)
        order = np.lexsort((rank, -C))
        ranked.append(RankedList(query.query_id, list(map(ids.__getitem__, order.tolist())),
                                 F[order], T[order], C[order], no_formulae=no_formulae))
    return ranked


def rank_pages(query: Query, collection: Collection, method: RankMethod,
               provider: FormulaVectorProvider | None = None,
               index: TextIndex | None = None,
               alpha: float = DEFAULT_ALPHA, mu: float | None = None) -> RankedList:
    """rank_queries for one query."""
    return rank_queries([query], collection, method, provider, index, alpha, mu)[0]


def write_run(ranked_lists, path, tag: str = "mathemb", top: int = 1000,
              meta: dict | None = None) -> None:
    """TREC run format: query_id Q0 page_id rank score tag, one % call per ranked
    list ("%.6f" rounds as f"{c:.6f}" does).  meta keys go into the comment line in order."""
    body = []
    for rl in ranked_lists:
        fields = tuple(chain.from_iterable(zip(rl.ids[:top], count(1), rl.C[:top].tolist())))
        line = " Q0 %s %d %.6f ".join((rl.query_id.replace("%", "%%"), tag.replace("%", "%%")))
        body += ["\n".join([line] * (len(fields) // 3)) % fields] if fields else []
    artifacts.write(path, body, meta=meta)
