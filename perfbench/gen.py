"""Seeded input generator for the mathemb benchmark.

Writes, into an output directory, the three files the program reads:

  collection.jsonl   pages with topic text and LaTeX formulae
  queries.jsonl      one topic per query: keywords plus at least one formula
  qrels.txt          every page of the query's topic is judged relevant

and ``truth.json``, the generator's own record of what it built (page and
formula counts, which formulae pass the corpus filter, the token surfaces of
every formula, page texts and topics).  The benchmark's checks read
``truth.json``; the program never sees it.

Formulae pass or fail the corpus filter (>= 2 distinct variables and >= 3
operator/relation occurrences) by construction: every token is drawn from a
pool whose class is known here, so the generator counts passing formulae
without calling the program.  Every token is written as its own
space-separated surface, so tokenizing a formula gives back exactly the
generated surface list.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass

import numpy as np

# Class pools.  Surfaces match the program's classification tables
# (src/mathemb/data/*.txt) and its single-character rules.
LATIN = list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
GREEK = ["\\alpha", "\\beta", "\\gamma", "\\delta", "\\epsilon", "\\varepsilon",
         "\\zeta", "\\eta", "\\theta", "\\vartheta", "\\iota", "\\kappa", "\\lambda",
         "\\mu", "\\nu", "\\xi", "\\pi", "\\varpi", "\\rho", "\\varrho", "\\sigma",
         "\\varsigma", "\\tau", "\\upsilon", "\\phi", "\\varphi", "\\chi", "\\psi",
         "\\omega", "\\Gamma", "\\Delta", "\\Theta", "\\Lambda", "\\Xi", "\\Pi",
         "\\Sigma", "\\Upsilon", "\\Phi", "\\Psi", "\\Omega"]
VARIABLES = LATIN + GREEK
# named operators are split among topics; the basic ones are shared
NAMED_OPS = ["\\frac", "\\sqrt", "\\sum", "\\prod", "\\int", "\\lim", "\\log", "\\ln",
             "\\exp", "\\sin", "\\cos", "\\tan", "\\cot", "\\sec", "\\csc", "\\arcsin",
             "\\arccos", "\\arctan", "\\sinh", "\\cosh", "\\tanh", "\\coth"]
BASIC_OPS = ["+", "-", "*", "/", "^", "_", "\\cdot", "\\times", "\\div", "\\pm", "\\mp"]
RELATIONS = ["=", "<", ">", "\\le", "\\ge", "\\ne", "\\approx", "\\equiv", "\\sim",
             "\\propto", "\\in", "\\subset"]
DIGITS = list("0123456789")
DELIMITERS = ["(", ")", "[", "]", "\\{", "\\}", "|", "\\langle", "\\rangle",
              "\\lfloor", "\\rfloor"]


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's inputs; sizes are fixed, content follows the seed."""

    pages: int
    formulas_per_page: tuple[int, int]     # inclusive range, pages with formulae
    formula_free_share: float              # pages with no formula at all
    pass_share: float                      # page formulae built to pass the filter
    repeat_share: float                    # failing formulae copied from an earlier page
    length: tuple[int, int]                # tokens per formula, inclusive range
    topics: int
    variables_per_topic: int               # symbol-vocabulary size follows from this
    queries: int
    formulas_per_query: tuple[int, int]


WORDS_PER_PAGE = (30, 70)
KEYWORDS_PER_TOPIC = 6
FILLER_WORDS = 400


SHAPES = {
    # inference-heavy: most page formulae fail the filter and must be inferred
    # by every search; some repeat across pages so the per-process cache hits
    "search-unseen": Shape(pages=120, formulas_per_page=(1, 2), formula_free_share=0.1,
                           pass_share=0.25, repeat_share=0.3, length=(6, 9), topics=6,
                           variables_per_topic=8, queries=12, formulas_per_query=(1, 1)),
    # scoring-heavy: every page formula is a trained row, many pages and queries
    "search-trained": Shape(pages=400, formulas_per_page=(1, 2), formula_free_share=0.1,
                            pass_share=1.0, repeat_share=0.0, length=(6, 9), topics=8,
                            variables_per_topic=6, queries=40, formulas_per_query=(1, 2)),
}


class Topic:
    def __init__(self, t: int, variables, named_ops, keywords):
        self.t = t
        self.variables = variables
        self.named_ops = named_ops
        self.ops = named_ops + BASIC_OPS
        self.keywords = keywords


def _filter_passes(tokens, var_set, oprel_set) -> bool:
    """The corpus filter, restated from the class pools this file draws from."""
    variables = {s for s in tokens if s in var_set}
    oprels = sum(1 for s in tokens if s in oprel_set)
    return len(variables) >= 2 and oprels >= 3


class Generator:
    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = np.random.default_rng([seed, 0x6D617468])
        need = shape.topics * shape.variables_per_topic
        if need > len(VARIABLES):
            raise ValueError(f"{need} topic variables exceed the {len(VARIABLES)} available")
        order = self.rng.permutation(len(VARIABLES))
        named = [NAMED_OPS[i] for i in self.rng.permutation(len(NAMED_OPS))]
        self.topics = []
        for t in range(shape.topics):
            vs = [VARIABLES[i] for i in order[t * shape.variables_per_topic:
                                              (t + 1) * shape.variables_per_topic]]
            ops = named[t::shape.topics]
            kws = [f"topic{t}term{j}" for j in range(KEYWORDS_PER_TOPIC)]
            self.topics.append(Topic(t, vs, ops, kws))
        self.var_set = frozenset(VARIABLES)
        self.oprel_set = frozenset(NAMED_OPS + BASIC_OPS + RELATIONS)
        # symbols no trainable formula has used yet, by pool; passing formulae
        # draw from these first, so the trained vocabulary is every pooled symbol
        self.todo = {id(pool): list(pool) for pool in
                     [BASIC_OPS, RELATIONS, DIGITS, DELIMITERS]
                     + [t.variables for t in self.topics] + [t.named_ops for t in self.topics]}

    def _pick(self, pool):
        return pool[int(self.rng.integers(len(pool)))]

    def _spread(self, n: int, lo: int, hi: int) -> list[int]:
        """n values cycling through lo..hi, shuffled: an exact, seed-free total."""
        values = [lo + i % (hi - lo + 1) for i in range(n)]
        return [values[i] for i in self.rng.permutation(n)]

    def _take(self, pool, cover: bool, exclude=None):
        todo = self.todo[id(pool)] if cover else []
        if todo and todo[0] != exclude:
            return todo.pop(0)
        choices = [s for s in pool if s != exclude]
        return choices[int(self.rng.integers(len(choices)))]

    def passing(self, topic: Topic, n: int, cover: bool) -> list[str]:
        """Two distinct topic variables, a relation and two operators, then fill."""
        v1 = self._take(topic.variables, cover)
        toks = [v1, self._take(topic.variables, cover, exclude=v1),
                self._take(RELATIONS, cover), self._take(topic.named_ops, cover),
                self._take(BASIC_OPS, cover)]
        while len(toks) < n:
            pending = [pool for pool in (DIGITS, DELIMITERS, topic.variables, topic.named_ops)
                       if cover and self.todo[id(pool)]]
            r = self.rng.random()
            pool = pending[0] if pending else (
                topic.variables if r < 0.45 else topic.named_ops if r < 0.6 else
                BASIC_OPS if r < 0.7 else DIGITS if r < 0.85 else DELIMITERS)
            toks.append(self._take(pool, cover))
        return [toks[i] for i in self.rng.permutation(len(toks))]

    def failing(self, topic: Topic, n: int) -> list[str]:
        """Topic variables but at most two operator/relation tokens."""
        n_oprel = int(self.rng.integers(0, 3))
        toks = [self._pick(topic.variables), self._pick(topic.variables)]
        toks += [self._pick(topic.ops + RELATIONS) for _ in range(n_oprel)]
        while len(toks) < n:
            r = self.rng.random()
            if r < 0.6:
                toks.append(self._pick(topic.variables))
            elif r < 0.8:
                toks.append(self._pick(DIGITS))
            else:
                toks.append(self._pick(DELIMITERS))
        return [toks[i] for i in self.rng.permutation(len(toks))]

    def text(self, topic: Topic, n: int) -> str:
        words = []
        for _ in range(n):
            r = self.rng.random()
            if r < 0.12:
                words.append(self._pick(topic.keywords))
            elif r < 0.16:
                words.append(self._pick(self._pick(self.topics).keywords))
            else:
                # Zipf-like filler so collection statistics are skewed
                k = int(self.rng.zipf(1.3)) % FILLER_WORDS
                words.append(f"w{k}")
        return " ".join(words)

    def build(self):
        s = self.shape
        pages, queries, qrels = [], [], []
        truth_pages, truth_formulas = [], {}
        if s.pages % s.topics:
            raise ValueError("pages must split evenly among topics")
        # every topic gets the same multiset of per-page formula counts
        counts = [0] * s.pages
        per_topic = s.pages // s.topics
        n_free = round(per_topic * s.formula_free_share)
        for t in range(s.topics):
            spread = [0] * n_free + self._spread(per_topic - n_free, *s.formulas_per_page)
            for j, c in zip(self.rng.permutation(per_topic), spread):
                counts[t + s.topics * int(j)] = c
        slot_topics = np.repeat(np.arange(s.pages) % s.topics, counts)
        # each topic gets its exact share of passing slots, and of failing slots
        # that repeat an earlier failing formula of the topic (never its first)
        passes = np.zeros(len(slot_topics), dtype=bool)
        repeats = np.zeros(len(slot_topics), dtype=bool)
        for t in range(s.topics):
            slots = self.rng.permutation(np.flatnonzero(slot_topics == t))
            n_pass = round(len(slots) * s.pass_share)
            passes[slots[:n_pass]] = True
            failing = np.sort(slots[n_pass:])[1:]
            n_rep = round((len(failing) + 1) * s.repeat_share)
            repeats[self.rng.permutation(failing)[:n_rep]] = True
        lengths = {kind: iter(self._spread(int(mask.sum()), *s.length)) for kind, mask in
                   (("pass", passes), ("fail", ~passes & ~repeats))}
        words = iter(self._spread(s.pages, *WORDS_PER_PAGE))
        earlier: dict[int, list[list[str]]] = {t: [] for t in range(s.topics)}
        slot = 0
        for i in range(s.pages):
            topic = self.topics[i % s.topics]
            page_id = f"p{i:05d}"
            latexes = []
            for k in range(counts[i]):
                if passes[slot]:
                    toks = self.passing(topic, next(lengths["pass"]), cover=True)
                elif repeats[slot]:
                    toks = self._pick(earlier[topic.t])
                else:
                    toks = self.failing(topic, next(lengths["fail"]))
                    earlier[topic.t].append(toks)
                if _filter_passes(toks, self.var_set, self.oprel_set) != passes[slot]:
                    raise AssertionError(f"formula built to {'pass' if passes[slot] else 'fail'}"
                                         f" the filter does not: {toks}")
                truth_formulas[f"{page_id}#f{k}"] = {"surfaces": toks,
                                                     "passes": bool(passes[slot])}
                latexes.append(" ".join(toks))
                slot += 1
            text = self.text(topic, next(words))
            pages.append({"page_id": page_id, "title": f"Page {i}", "text": text,
                          "formulas": latexes})
            truth_pages.append({"page_id": page_id, "topic": topic.t, "text": text,
                                "formula_ids": [f"{page_id}#f{k}" for k in range(counts[i])]})
        missing = [sym for todo in self.todo.values() for sym in todo]
        if missing:
            raise ValueError(f"shape too small to train every pooled symbol: {missing[:5]}")

        per_query = self._spread(s.queries, *s.formulas_per_query)
        query_lengths = iter(self._spread(sum(per_query), *s.length))
        for q in range(s.queries):
            topic = self.topics[q % s.topics]
            qid = f"q{q:03d}"
            kw = self.rng.permutation(len(topic.keywords))[:2]
            queries.append({"query_id": qid,
                            "keywords": [topic.keywords[int(j)] for j in kw],
                            "formulas": [" ".join(self.passing(topic, next(query_lengths),
                                                               cover=False))
                                         for _ in range(per_query[q])]})
            for p in truth_pages:
                if p["topic"] == topic.t:
                    qrels.append(f"{qid} 0 {p['page_id']} 1")
        truth = {
            "pages": truth_pages,
            "formulas": truth_formulas,
            "page_count": len(pages),
            "formula_count": len(truth_formulas),
        }
        return pages, queries, qrels, truth


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")


def generate(workload: str, seed: int, out: pathlib.Path) -> None:
    pages, queries, qrels, truth = Generator(SHAPES[workload], seed).build()
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "collection.jsonl", pages)
    _write_jsonl(out / "queries.jsonl", queries)
    (out / "qrels.txt").write_text("\n".join(qrels) + "\n", encoding="utf-8")
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, pathlib.Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
