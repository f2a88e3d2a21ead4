"""Collections, queries, the corpus filter, and the training vocabulary.

Collections and queries are JSON-lines files:

  collection:  {"page_id": ..., "title": ..., "text": ..., "formulas": [latex, ...]}
  queries:     {"query_id": ..., "keywords": [...], "formulas": [latex, ...]}

Persisted stores (the collection store and the training corpus) are
artifacts in the layout of artifacts.py: a version header line, then one
JSON record per line, so they can be inspected and diffed.  All
serialization is byte-deterministic: sorted JSON keys, no timestamps.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import (
    DuplicatePageId,
    DuplicateQueryId,
    EmptyVocabulary,
    MalformedRecord,
    MathembError,
)
from .tokenizer import SymbolToken, TokenizedFormula, classify, tokenize

CORPUS_HEADER = "MATHEMB-CORPUS v1"
TRAIN_HEADER = "MATHEMB-TRAINCORPUS v1"

_WORD_RE = re.compile(r"[a-z0-9]+")


@dataclass
class Page:
    page_id: str
    title: str
    text_terms: list[str]
    formula_ids: list[str]


@dataclass
class Query:
    query_id: str
    keywords: list[str]
    formulae: list[TokenizedFormula]


@dataclass
class Collection:
    pages: list[Page] = field(default_factory=list)
    formulas: dict[str, TokenizedFormula] = field(default_factory=dict)

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def formula_count(self) -> int:
        return len(self.formulas)


def normalize_text(text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; no stemming."""
    terms = _WORD_RE.findall(text.lower())
    if stopwords:
        terms = [t for t in terms if t not in stopwords]
    return terms


def load_stopwords(path) -> frozenset[str]:
    return frozenset(w.strip().lower() for _, w in artifacts.read_lines(path) if w.strip())


def _check_id(value, kind: str) -> str:
    if not isinstance(value, str) or not value or any(c.isspace() for c in value):
        raise MalformedRecord(
            f"{kind} must be a non-empty string without whitespace, got {value!r}")
    return value


def _string_list(rec: dict, key: str) -> list[str]:
    values = rec.get(key, [])
    if not isinstance(values, list) or any(not isinstance(v, str) for v in values):
        raise MalformedRecord(f"{key} must be a list of strings")
    return values


def _tokenized(latexes, id_prefix: str) -> list[TokenizedFormula]:
    out = []
    for k, latex in enumerate(latexes):
        try:
            tokens = tokenize(latex)
        except MathembError as exc:
            raise MalformedRecord(f"formula {k}: {exc}") from None
        out.append(TokenizedFormula(f"{id_prefix}{k}", tokens))
    return out


def ingest_pages(path, stopwords: frozenset[str] = frozenset()) -> Collection:
    """Read a collection file, tokenizing every formula.

    Pages without formulae are kept; they are still rankable by text.
    Raises MalformedRecord or DuplicatePageId, with the file and line, and
    aborts on the first bad record.
    """
    coll = Collection()
    seen: set[str] = set()

    def page(rec) -> Page:
        page_id = _check_id(rec.get("page_id"), "page_id")
        if page_id in seen:
            raise DuplicatePageId(f"duplicate page_id {page_id!r}")
        seen.add(page_id)
        title = rec.get("title", "")
        if not isinstance(title, str):
            raise MalformedRecord("title must be a string")
        text = rec.get("text", "")
        if not isinstance(text, str):
            raise MalformedRecord("text must be a string")
        formulae = _tokenized(_string_list(rec, "formulas"), f"{page_id}#f")
        coll.formulas.update((f.id, f) for f in formulae)
        return Page(page_id, title, normalize_text(text, stopwords), [f.id for f in formulae])

    coll.pages = artifacts.read_records(path, page)
    return coll


def ingest_queries(path, stopwords: frozenset[str] = frozenset()) -> list[Query]:
    """Read a query file; keywords get the same normalization as page text."""
    seen: set[str] = set()

    def query(rec) -> Query:
        query_id = _check_id(rec.get("query_id"), "query_id")
        if query_id.startswith("#"):
            # run and qrels readers skip "#" lines as comments
            raise MalformedRecord(f"query_id must not start with '#', got {query_id!r}")
        if query_id in seen:
            raise DuplicateQueryId(f"duplicate query_id {query_id!r}")
        seen.add(query_id)
        keywords = [term for kw in _string_list(rec, "keywords")
                    for term in normalize_text(kw, stopwords)]
        # "#q", not a page formula's "#f": trained rows are looked up by id
        formulae = _tokenized(_string_list(rec, "formulas"), f"{query_id}#q")
        if not keywords and not formulae:
            raise MalformedRecord("query has neither keywords nor formulas")
        return Query(query_id, keywords, formulae)

    return artifacts.read_records(path, query)


def filter_corpus(formulas) -> list[TokenizedFormula]:
    """Keep the formulae eligible for embedding training, order preserved."""
    from .tokenizer import passes_filter

    return [f for f in formulas if passes_filter(f.tokens)]


# ---------------------------------------------------------------------------
# vocabulary


# Equal slices of [0, 1) that Vocabulary.quantile looks draws up in.
_SLICES = 4096


@dataclass
class Vocabulary:
    """Dense surface index plus the negative-sampling distribution; ValueError
    when counts ** power has no finite positive sum to normalise by."""

    surfaces: list[str]
    counts: list[int]
    power: float
    index: dict[str, int] = field(init=False)
    sampling_probs: np.ndarray = field(init=False)
    _cumulative: np.ndarray = field(init=False, repr=False)
    _slices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.surfaces)}
        with np.errstate(over="ignore"):
            weights = np.asarray(self.counts, dtype=np.float64) ** self.power
        total = weights.sum()
        if not 0 < total < np.inf:
            raise ValueError(f"sample power {self.power!r} gives no finite sampling distribution")
        self.sampling_probs = weights / total
        self._cumulative = np.cumsum(self.sampling_probs)
        self._cumulative[-1] = 1.0
        # the inverse CDF of every slice [b, b + 1) / _SLICES that holds no
        # CDF step, -1 for the others; the last slice starts at 1.0
        edges = np.arange(_SLICES + 2) / _SLICES
        lo = np.searchsorted(self._cumulative, edges[:-1], side="right")
        hi = np.searchsorted(self._cumulative, edges[1:], side="left")
        self._slices = np.where(lo == hi, lo, -1)

    def __len__(self) -> int:
        return len(self.surfaces)

    def __contains__(self, surface: str) -> bool:
        return surface in self.index

    def quantile(self, uniforms) -> np.ndarray:
        """Token indices at the given uniform [0, 1) draws of the sampling
        distribution (inverse CDF); any array shape.  A draw is looked up in
        its slice of [0, 1), exactly, as the slice count is a power of two;
        only the draws in a slice that holds a CDF step are searched for."""
        uniforms = np.asarray(uniforms, dtype=np.float64)
        found = self._slices[(uniforms * _SLICES).astype(np.intp)]
        step = found < 0
        found[step] = np.searchsorted(self._cumulative, uniforms[step], side="right")
        return found

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for s, c in zip(self.surfaces, self.counts):
            h.update(f"{s}\t{c}\n".encode("utf-8"))
        h.update(f"power={self.power!r}".encode("utf-8"))
        return h.hexdigest()


def build_vocabulary(formulas, min_count: int = 1, power: float = 0.75) -> Vocabulary:
    """Count surfaces over the training corpus and index them.

    Surfaces below min_count are dropped; survivors are ordered by descending
    frequency with lexicographic tie-break, which makes indices reproducible.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: dict[str, int] = {}
    for f in formulas:
        for tok in f.tokens:
            counts[tok.surface] = counts.get(tok.surface, 0) + 1
    kept = [(s, c) for s, c in counts.items() if c >= min_count]
    if not kept:
        raise EmptyVocabulary(f"no surface reaches min_count={min_count}")
    kept.sort(key=lambda sc: (-sc[1], sc[0]))
    return Vocabulary([s for s, _ in kept], [c for _, c in kept], power)


# ---------------------------------------------------------------------------
# persistence


def _formula_record(rec) -> TokenizedFormula:
    return TokenizedFormula(rec["id"], [SymbolToken(s, classify(s)) for s in rec["surfaces"]])


def _store_record(rec) -> Page | TokenizedFormula:
    kind = rec["kind"]
    if kind == "page":
        return Page(rec["page_id"], rec["title"], list(rec["text_terms"]),
                    list(rec["formula_ids"]))
    if kind == "formula":
        return _formula_record(rec)
    raise MalformedRecord(f"unknown record kind {kind!r}")


def save_collection(coll: Collection, path, meta: dict | None = None) -> None:
    """Write the collection store; meta keys go into its comment line in order."""
    body = [artifacts.to_json({
        "kind": "page",
        "page_id": p.page_id,
        "title": p.title,
        "text_terms": p.text_terms,
        "formula_ids": p.formula_ids,
    }) for p in coll.pages]
    body += [artifacts.to_json({"kind": "formula", "id": fid, "surfaces": f.surfaces})
             for fid, f in coll.formulas.items()]
    artifacts.write(path, body, CORPUS_HEADER, meta)


def load_collection(path) -> Collection:
    coll = Collection()
    for item in artifacts.read_records(path, _store_record, CORPUS_HEADER):
        if isinstance(item, Page):
            coll.pages.append(item)
        else:
            coll.formulas[item.id] = item
    for p in coll.pages:
        for fid in p.formula_ids:
            if fid not in coll.formulas:
                raise MalformedRecord(f"{path}: page {p.page_id!r} references missing "
                                      f"formula {fid!r}")
    return coll


def save_training_corpus(formulas, path, meta: dict | None = None) -> None:
    """Write the training corpus; meta keys go into its comment line in order."""
    body = [artifacts.to_json({"id": f.id, "surfaces": f.surfaces}) for f in formulas]
    artifacts.write(path, body, TRAIN_HEADER, meta)


def load_training_corpus(path) -> list[TokenizedFormula]:
    return artifacts.read_records(path, _formula_record, TRAIN_HEADER)
