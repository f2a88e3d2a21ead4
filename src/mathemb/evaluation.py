"""Ranked-retrieval metrics, run/qrels parsing, and parameter sweeps.

Conventions (fixed so numbers are comparable across runs):

  * NDCG uses exponential gain (2^grade - 1) and log2(rank+1) discount; the
    ideal ordering is all judged grades sorted descending.
  * P@k keeps the fixed denominator k even when fewer pages are retrieved.
  * AP and MRR binarize at grade >= threshold (default 1); AP divides by the
    total number of relevant pages in the judgments.
  * Queries with no relevant page score 0 and are excluded from the means.

Run lines are re-sorted by (score desc, page_id asc); the rank column in the
file is informational only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import MalformedQrelLine, MalformedRunLine

METRIC_ORDER = ("NDCG", "P", "MAP", "MRR")


# ---------------------------------------------------------------------------
# single-query metrics


def ndcg_at_k(ranked_ids, grades: dict[str, int], k: int) -> float:
    """Normalized DCG over the top-k prefix; 0 when nothing is relevant."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = 0.0
    for i, pid in enumerate(ranked_ids[:k], start=1):
        g = grades.get(pid, 0)
        if g > 0:
            dcg += (2.0 ** g - 1.0) / math.log2(i + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not ideal:
        return 0.0
    idcg = sum((2.0 ** g - 1.0) / math.log2(i + 1) for i, g in enumerate(ideal[:k], start=1))
    return dcg / idcg


def precision_at_k(ranked_ids, grades: dict[str, int], k: int, threshold: int = 1) -> float:
    """|relevant in top k| / k, denominator always k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for pid in ranked_ids[:k] if grades.get(pid, 0) >= threshold)
    return hits / k


def average_precision(ranked_ids, grades: dict[str, int], threshold: int = 1) -> float:
    """Sum of P@i at relevant retrieved ranks i, divided by total relevant R."""
    relevant = {pid for pid, g in grades.items() if g >= threshold}
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for i, pid in enumerate(ranked_ids, start=1):
        if pid in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def reciprocal_rank(ranked_ids, grades: dict[str, int], threshold: int = 1) -> float:
    for i, pid in enumerate(ranked_ids, start=1):
        if grades.get(pid, 0) >= threshold:
            return 1.0 / i
    return 0.0


# ---------------------------------------------------------------------------
# run / qrels files


def parse_run(path) -> dict[str, list[tuple[str, float]]]:
    """TREC run file -> {query_id: [(page_id, score)] sorted by score desc}."""
    run: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6:
                raise MalformedRunLine(f"line {line_no}: expected 6 fields, got {len(parts)}")
            qid, _, pid, rank, score, _tag = parts
            try:
                int(rank)
                score_val = float(score)
            except ValueError:
                raise MalformedRunLine(f"line {line_no}: bad rank/score") from None
            per_query = run.setdefault(qid, {})
            if pid in per_query:
                raise MalformedRunLine(f"line {line_no}: duplicate page {pid!r} for query {qid!r}")
            per_query[pid] = score_val
    return {
        qid: sorted(scores.items(), key=lambda ps: (-ps[1], ps[0]))
        for qid, scores in run.items()
    }


def parse_qrels(path) -> dict[str, dict[str, int]]:
    """TREC qrels -> {query_id: {page_id: grade}}; grades must be >= 0."""
    qrels: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise MalformedQrelLine(f"line {line_no}: expected 4 fields, got {len(parts)}")
            qid, _, pid, grade = parts
            try:
                grade_val = int(grade)
            except ValueError:
                raise MalformedQrelLine(f"line {line_no}: grade {grade!r} is not an integer") from None
            if grade_val < 0:
                raise MalformedQrelLine(f"line {line_no}: negative grade")
            per_query = qrels.setdefault(qid, {})
            if pid in per_query:
                raise MalformedQrelLine(f"line {line_no}: duplicate judgment for ({qid}, {pid})")
            per_query[pid] = grade_val
    return qrels


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricReport:
    ks: tuple[int, ...]
    per_query: dict[str, dict[str, float]]
    means: dict[str, float]
    queries_scored: int
    queries_without_relevant: list[str] = field(default_factory=list)
    queries_skipped: list[str] = field(default_factory=list)

    def metric_names(self) -> list[str]:
        names = [f"NDCG@{k}" for k in self.ks] + [f"P@{k}" for k in self.ks]
        return names + ["MAP", "MRR"]


def evaluate_core(run: dict[str, list[tuple[str, float]]],
                  qrels: dict[str, dict[str, int]],
                  ks=(30, 50), threshold: int = 1) -> MetricReport:
    """Metrics for an in-memory run against in-memory judgments."""
    ks = tuple(ks)
    per_query: dict[str, dict[str, float]] = {}
    skipped = [qid for qid in run if qid not in qrels]
    no_relevant: list[str] = []
    for qid in run:
        if qid not in qrels:
            continue
        grades = qrels[qid]
        ranked_ids = [pid for pid, _ in run[qid]]
        row = {}
        for k in ks:
            row[f"NDCG@{k}"] = ndcg_at_k(ranked_ids, grades, k)
            row[f"P@{k}"] = precision_at_k(ranked_ids, grades, k, threshold)
        row["MAP"] = average_precision(ranked_ids, grades, threshold)
        row["MRR"] = reciprocal_rank(ranked_ids, grades, threshold)
        per_query[qid] = row
        if not any(g >= threshold for g in grades.values()):
            no_relevant.append(qid)

    contributing = [qid for qid in per_query if qid not in no_relevant]
    names = [f"NDCG@{k}" for k in ks] + [f"P@{k}" for k in ks] + ["MAP", "MRR"]
    if contributing:
        means = {m: sum(per_query[q][m] for q in contributing) / len(contributing)
                 for m in names}
    else:
        means = {m: 0.0 for m in names}
    return MetricReport(ks, per_query, means, len(contributing), no_relevant, skipped)


def evaluate_run(run_path, qrels_path, ks=(30, 50), threshold: int = 1) -> MetricReport:
    return evaluate_core(parse_run(run_path), parse_qrels(qrels_path), ks, threshold)


def report_tsv(report: MetricReport, meta: dict | None = None) -> str:
    names = report.metric_names()
    lines = []
    if meta:
        lines.append("# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    lines.append(
        f"# queries={report.queries_scored} "
        f"without_relevant={len(report.queries_without_relevant)} "
        f"skipped={len(report.queries_skipped)}"
    )
    lines.append("\t".join(["query_id"] + names))
    for qid in sorted(report.per_query):
        row = report.per_query[qid]
        lines.append("\t".join([qid] + [f"{row[m]:.4f}" for m in names]))
    lines.append("\t".join(["ALL"] + [f"{report.means[m]:.4f}" for m in names]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweeps


class SweepAxis(Enum):
    DIMENSION = "dimension"
    ALPHA = "alpha"


def sweep(axis: SweepAxis, values, *, collection, queries, train_corpus, qrels,
          config, mu=None, alpha=None, infer_steps=None, min_count: int = 1,
          power: float = 0.75, ks=(30, 50), threshold: int = 1,
          workers: int = 1):
    """Train/rank/evaluate across one swept parameter.

    DIMENSION retrains the formula model per value and ranks formula-only;
    ALPHA trains once and re-ranks with the combined method per value.
    Returns [(value, MetricReport)].
    """
    from .corpus import build_vocabulary
    from .embeddings import Mode, train_formula2vec
    from .retrieval import (
        DEFAULT_ALPHA, DEFAULT_INFER_STEPS, DEFAULT_MU,
        FormulaMatrix, FormulaVectorProvider, RankMethod, TextIndex, rank_pages,
    )

    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    mu = DEFAULT_MU if mu is None else mu
    alpha = DEFAULT_ALPHA if alpha is None else alpha
    infer_steps = DEFAULT_INFER_STEPS if infer_steps is None else infer_steps

    vocab = build_vocabulary(train_corpus, min_count=min_count, power=power)

    def formula_provider(table):
        provider = FormulaVectorProvider(table, infer_steps=infer_steps)
        return provider, FormulaMatrix.build(collection.pages, collection, provider, queries)

    def run_dict(method, provider, formulas, index, a):
        out = {}
        for q in queries:
            rl = rank_pages(q, collection, method, provider=provider, index=index,
                            alpha=a, mu=mu, formulas=formulas)
            out[q.query_id] = [(e.page_id, e.C) for e in rl.entries]
        return out

    results = []
    if axis is SweepAxis.DIMENSION:
        for v in values:
            cfg = replace(config, dim=int(v), mode=Mode.FORMULA2VEC)
            table = train_formula2vec(train_corpus, vocab, cfg, workers=workers)
            provider, formulas = formula_provider(table)
            run = run_dict(RankMethod.FORMULA2VEC, provider, formulas, None, alpha)
            results.append((float(v), evaluate_core(run, qrels, ks, threshold)))
    elif axis is SweepAxis.ALPHA:
        cfg = replace(config, mode=Mode.FORMULA2VEC)
        table = train_formula2vec(train_corpus, vocab, cfg, workers=workers)
        provider, formulas = formula_provider(table)
        index = TextIndex.build(collection, mu)
        for v in values:
            run = run_dict(RankMethod.COMBINED, provider, formulas, index, float(v))
            results.append((float(v), evaluate_core(run, qrels, ks, threshold)))
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return results


def sweep_tsv(axis: SweepAxis, results, ks=(30, 50), meta: dict | None = None) -> str:
    names = [f"NDCG@{k}" for k in ks] + [f"P@{k}" for k in ks] + ["MAP", "MRR"]
    lines = []
    if meta:
        lines.append("# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    lines.append("\t".join([axis.value] + names))
    for value, report in results:
        shown = f"{value:g}"
        lines.append("\t".join([shown] + [f"{report.means[m]:.4f}" for m in names]))
    return "\n".join(lines) + "\n"
