"""Per-layer spans for the traced benchmark run, recorded from outside the program.

``Tracer.install`` replaces the public functions of each mathemb module with
wrappers that time every call; ``uninstall`` puts the originals back, so an
untraced round runs the program's own functions.  A module that binds a
name at import (``retrieval`` imports ``cosine`` and ``infer_vector``,
``corpus`` imports ``tokenize``) is patched under that bound name, in the
module that calls it.  The CLI imports its handlers' functions when a
command runs, so patching the defining module reaches it.

Each span adds to its name's call count and busy time (the span's
duration in CPU time of the process, the clock the end-to-end figures
use); its self time is the duration minus the time covered by the spans it
caused.  Aggregates stay in memory and are read at the end.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.values: dict[str, float] = {}      # sizes and counts read off results
        self.inferred: set[str] = set()         # distinct formulae inferred
        self._stack: list[float] = []           # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, fn, name_of, after=None, keep_durations=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.process_time() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                st = self.stats.setdefault(name_of(*args, **kwargs), SpanStats())
                st.calls += 1
                st.busy_s += dt
                st.self_s += dt - child
                if keep_durations:
                    st.durations.append(dt)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _patch(self, owner, attr, name, **kw):
        original = owner.__dict__[attr]
        fn = original.__func__ if isinstance(original, classmethod) else original
        name_of = name if callable(name) else (lambda *a, **k: name)
        wrapped = self._span(fn, name_of, **kw)
        setattr(owner, attr, classmethod(wrapped) if isinstance(original, classmethod)
                else wrapped)
        self._patches.append((owner, attr, original))

    def install(self):
        from mathemb import analysis, corpus, embeddings, retrieval

        def inferred(result, tokens, *a, **k):
            self.inferred.add(" ".join(t.surface for t in tokens))

        p = self._patch
        p(corpus, "tokenize", "tokenizer.tokenize")
        p(corpus, "ingest_pages", "corpus.ingest_pages")
        p(corpus, "save_collection", "corpus.save_collection")
        p(corpus, "load_collection", "corpus.load_collection")
        p(corpus, "filter_corpus", "corpus.filter_corpus",
          after=lambda r, *a, **k: self._set("corpus.filter_corpus.kept", len(r)))
        p(corpus, "build_vocabulary", "corpus.build_vocabulary",
          after=lambda r, *a, **k: self._set("corpus.build_vocabulary.size", len(r)))
        p(embeddings, "train_symbol2vec", "embeddings.train_symbol2vec")
        p(embeddings, "train_formula2vec", "embeddings.train_formula2vec")
        p(embeddings, "save_table", "embeddings.save_table")
        p(embeddings, "load_table", "embeddings.load_table")
        p(retrieval, "infer_vector", "embeddings.infer_vector", after=inferred,
          keep_durations=True)
        p(retrieval, "cosine", "analysis.cosine")
        p(analysis, "cosine", "analysis.cosine")
        p(analysis, "nearest_neighbors", "analysis.nearest_neighbors")
        p(analysis, "pca_project", "analysis.pca_project")
        p(retrieval.FormulaVectorProvider, "vector_for", "retrieval.vector_for")
        p(retrieval, "formula_page_score", "retrieval.formula_page_score")
        p(retrieval, "lm_score", "retrieval.lm_score")
        p(retrieval.TextIndex, "load", "retrieval.TextIndex.load")
        p(retrieval, "rank_pages",
          lambda query, coll, method, *a, **k: f"retrieval.rank_pages.{method.value}",
          keep_durations=True)
        p(retrieval, "write_run", "retrieval.write_run")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set(self, name, n):
        self.values[name] = n

    # -- reading -----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def busy(self, name) -> float:
        return self.stats[name].busy_s if name in self.stats else 0.0

    def self_time(self, name) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0
