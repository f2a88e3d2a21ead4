"""Collections, queries, the corpus filter, and the training vocabulary.

Collections and queries are JSON-lines files:

  collection:  {"page_id": ..., "title": ..., "text": ..., "formulas": [latex, ...]}
  queries:     {"query_id": ..., "keywords": [...], "formulas": [latex, ...]}

Persisted stores are plain text with a version header line so they can be
inspected and diffed.  All serialization is byte-deterministic: sorted JSON
keys, no timestamps.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicatePageId,
    DuplicateQueryId,
    EmptyVocabulary,
    MalformedRecord,
    MathembError,
)
from .tokenizer import TokenizedFormula, tokenize

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

    def page(self, page_id: str) -> Page:
        for p in self.pages:
            if p.page_id == page_id:
                return p
        raise KeyError(page_id)


def normalize_text(text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; no stemming."""
    terms = _WORD_RE.findall(text.lower())
    if stopwords:
        terms = [t for t in terms if t not in stopwords]
    return terms


def load_stopwords(path) -> frozenset[str]:
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


def _check_id(value, line_no: int, kind: str) -> str:
    if not isinstance(value, str) or not value or any(c.isspace() for c in value):
        raise MalformedRecord(
            f"line {line_no}: {kind} must be a non-empty string without whitespace, got {value!r}"
        )
    return value


def _parse_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"line {line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise MalformedRecord(f"line {line_no}: record is not an object")
            yield line_no, record


def ingest_pages(path, stopwords: frozenset[str] = frozenset()) -> Collection:
    """Read a collection file, tokenizing every formula.

    Pages without formulae are kept; they are still rankable by text.
    Raises MalformedRecord (with the line number) or DuplicatePageId, and
    aborts on the first bad record.
    """
    coll = Collection()
    seen: set[str] = set()
    for line_no, rec in _parse_jsonl(path):
        page_id = _check_id(rec.get("page_id"), line_no, "page_id")
        if page_id in seen:
            raise DuplicatePageId(f"line {line_no}: duplicate page_id {page_id!r}")
        seen.add(page_id)
        title = rec.get("title", "")
        if not isinstance(title, str):
            raise MalformedRecord(f"line {line_no}: title must be a string")
        text = rec.get("text", "")
        if not isinstance(text, str):
            raise MalformedRecord(f"line {line_no}: text must be a string")
        formulas = rec.get("formulas", [])
        if not isinstance(formulas, list) or any(not isinstance(f, str) for f in formulas):
            raise MalformedRecord(f"line {line_no}: formulas must be a list of strings")
        formula_ids = []
        for k, latex in enumerate(formulas):
            fid = f"{page_id}#f{k}"
            try:
                tokens = tokenize(latex)
            except MathembError as exc:
                raise MalformedRecord(f"line {line_no}: formula {k}: {exc}") from None
            coll.formulas[fid] = TokenizedFormula(fid, tokens)
            formula_ids.append(fid)
        coll.pages.append(Page(page_id, title, normalize_text(text, stopwords), formula_ids))
    return coll


def ingest_queries(path, stopwords: frozenset[str] = frozenset()) -> list[Query]:
    """Read a query file; keywords get the same normalization as page text."""
    queries: list[Query] = []
    seen: set[str] = set()
    for line_no, rec in _parse_jsonl(path):
        query_id = _check_id(rec.get("query_id"), line_no, "query_id")
        if query_id in seen:
            raise DuplicateQueryId(f"line {line_no}: duplicate query_id {query_id!r}")
        seen.add(query_id)
        raw_keywords = rec.get("keywords", [])
        if not isinstance(raw_keywords, list) or any(not isinstance(k, str) for k in raw_keywords):
            raise MalformedRecord(f"line {line_no}: keywords must be a list of strings")
        keywords: list[str] = []
        for kw in raw_keywords:
            keywords.extend(normalize_text(kw, stopwords))
        formulas = rec.get("formulas", [])
        if not isinstance(formulas, list) or any(not isinstance(f, str) for f in formulas):
            raise MalformedRecord(f"line {line_no}: formulas must be a list of strings")
        formulae = []
        for k, latex in enumerate(formulas):
            try:
                tokens = tokenize(latex)
            except MathembError as exc:
                raise MalformedRecord(f"line {line_no}: formula {k}: {exc}") from None
            formulae.append(TokenizedFormula(f"{query_id}#f{k}", tokens))
        if not keywords and not formulae:
            raise MalformedRecord(f"line {line_no}: query has neither keywords nor formulas")
        queries.append(Query(query_id, keywords, formulae))
    return queries


def filter_corpus(formulas) -> list[TokenizedFormula]:
    """Keep the formulae eligible for embedding training, order preserved."""
    from .tokenizer import passes_filter

    return [f for f in formulas if passes_filter(f.tokens)]


# ---------------------------------------------------------------------------
# vocabulary


@dataclass
class Vocabulary:
    """Dense surface index plus the negative-sampling distribution."""

    surfaces: list[str]
    counts: list[int]
    power: float
    index: dict[str, int] = field(init=False)
    total_tokens: int = field(init=False)
    sampling_probs: np.ndarray = field(init=False)
    _cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.surfaces)}
        self.total_tokens = int(sum(self.counts))
        weights = np.asarray(self.counts, dtype=np.float64) ** self.power
        self.sampling_probs = weights / weights.sum()
        self._cumulative = np.cumsum(self.sampling_probs)
        self._cumulative[-1] = 1.0

    def __len__(self) -> int:
        return len(self.surfaces)

    def __contains__(self, surface: str) -> bool:
        return surface in self.index

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw `size` token indices from the unigram^power distribution."""
        return self.quantile(rng.random(size))

    def quantile(self, uniforms) -> np.ndarray:
        """Token indices at the given uniform [0, 1) draws of the sampling
        distribution (inverse CDF); any array shape."""
        return np.searchsorted(self._cumulative, uniforms, side="right")

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


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _header_lines(meta: dict | None) -> list[str]:
    if not meta:
        return []
    return ["# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta))]


def save_collection(coll: Collection, path, meta: dict | None = None) -> None:
    lines = [CORPUS_HEADER]
    lines += _header_lines(meta)
    for p in coll.pages:
        lines.append(_dump({
            "kind": "page",
            "page_id": p.page_id,
            "title": p.title,
            "text_terms": p.text_terms,
            "formula_ids": p.formula_ids,
        }))
    for fid, f in coll.formulas.items():
        lines.append(_dump({"kind": "formula", "id": fid, "surfaces": f.surfaces}))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_collection(path) -> Collection:
    from .tokenizer import SymbolToken, classify

    coll = Collection()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CORPUS_HEADER:
            raise MalformedRecord(f"line 1: expected header {CORPUS_HEADER!r}, got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"line {line_no}: invalid JSON ({exc.msg})") from None
            kind = rec.get("kind")
            if kind == "page":
                coll.pages.append(Page(
                    rec["page_id"], rec["title"], list(rec["text_terms"]), list(rec["formula_ids"]),
                ))
            elif kind == "formula":
                tokens = [SymbolToken(s, classify(s)) for s in rec["surfaces"]]
                coll.formulas[rec["id"]] = TokenizedFormula(rec["id"], tokens)
            else:
                raise MalformedRecord(f"line {line_no}: unknown record kind {kind!r}")
    for p in coll.pages:
        for fid in p.formula_ids:
            if fid not in coll.formulas:
                raise MalformedRecord(f"page {p.page_id!r} references missing formula {fid!r}")
    return coll


def save_training_corpus(formulas, path, meta: dict | None = None) -> None:
    lines = [TRAIN_HEADER]
    lines += _header_lines(meta)
    for f in formulas:
        lines.append(_dump({"id": f.id, "surfaces": f.surfaces}))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_training_corpus(path) -> list[TokenizedFormula]:
    from .tokenizer import SymbolToken, classify

    out: list[TokenizedFormula] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TRAIN_HEADER:
            raise MalformedRecord(f"line 1: expected header {TRAIN_HEADER!r}, got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"line {line_no}: invalid JSON ({exc.msg})") from None
            tokens = [SymbolToken(s, classify(s)) for s in rec["surfaces"]]
            out.append(TokenizedFormula(rec["id"], tokens))
    return out
