"""Ranked-retrieval metrics, run/qrels parsing, and parameter sweeps.

Conventions (fixed so numbers are comparable across runs):

  * NDCG uses exponential gain (2^grade - 1) and log2(rank+1) discount; the
    ideal ordering is all judged grades sorted descending.
  * P@k keeps the fixed denominator k even when fewer pages are retrieved.
  * AP and MRR binarize at grade >= threshold (default 1); AP divides by the
    total number of relevant pages in the judgments.
  * Queries with no relevant page score 0 and are excluded from the means.
  * A judged query with a relevant page that the run leaves out scores 0 on
    every metric and counts in the means (trec_eval's -c); the report
    header counts these as missing.
  * Run queries without judgments are skipped.

Run lines are re-sorted by (score desc, page_id asc); the rank column in the
file is informational only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from . import artifacts
from .errors import MalformedQrelLine, MalformedRunLine

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
    for line_no, (qid, _, pid, rank, score, _tag) in artifacts.read_fields(
            path, 6, MalformedRunLine):
        try:
            int(rank)
            score_val = float(score)
        except ValueError:
            raise MalformedRunLine(f"{path}:{line_no}: bad rank/score") from None
        if not math.isfinite(score_val):
            raise MalformedRunLine(f"{path}:{line_no}: score {score!r} is not finite")
        per_query = run.setdefault(qid, {})
        if pid in per_query:
            raise MalformedRunLine(f"{path}:{line_no}: duplicate page {pid!r} for query {qid!r}")
        per_query[pid] = score_val
    return {
        qid: sorted(scores.items(), key=lambda ps: (-ps[1], ps[0]))
        for qid, scores in run.items()
    }


def parse_qrels(path) -> dict[str, dict[str, int]]:
    """TREC qrels -> {query_id: {page_id: grade}}; grades must be >= 0."""
    qrels: dict[str, dict[str, int]] = {}
    for line_no, (qid, _, pid, grade) in artifacts.read_fields(path, 4, MalformedQrelLine):
        try:
            grade_val = int(grade)
        except ValueError:
            raise MalformedQrelLine(
                f"{path}:{line_no}: grade {grade!r} is not an integer") from None
        if grade_val < 0:
            raise MalformedQrelLine(f"{path}:{line_no}: negative grade")
        per_query = qrels.setdefault(qid, {})
        if pid in per_query:
            raise MalformedQrelLine(f"{path}:{line_no}: duplicate judgment for ({qid}, {pid})")
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
    queries_missing: list[str] = field(default_factory=list)


def _metric_names(ks) -> list[str]:
    """The report columns for cutoffs ks, in order."""
    return [f"NDCG@{k}" for k in ks] + [f"P@{k}" for k in ks] + ["MAP", "MRR"]


def evaluate_core(run: dict[str, list[tuple[str, float]]],
                  qrels: dict[str, dict[str, int]],
                  ks=(30, 50), threshold: int = 1) -> MetricReport:
    """Metrics for an in-memory run against in-memory judgments."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1: an unjudged page has grade 0")
    ks = tuple(ks)
    per_query: dict[str, dict[str, float]] = {}
    skipped = [qid for qid in run if qid not in qrels]
    missing = [qid for qid, grades in qrels.items()
               if qid not in run and any(g >= threshold for g in grades.values())]
    no_relevant: list[str] = []
    for qid in [qid for qid in run if qid in qrels] + missing:
        grades = qrels[qid]
        ranked_ids = [pid for pid, _ in run.get(qid, ())]
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
    names = _metric_names(ks)
    if contributing:
        means = {m: sum(per_query[q][m] for q in contributing) / len(contributing)
                 for m in names}
    else:
        means = {m: 0.0 for m in names}
    return MetricReport(ks, per_query, means, len(contributing), no_relevant, skipped, missing)


def evaluate_run(run_path, qrels_path, ks=(30, 50), threshold: int = 1) -> MetricReport:
    return evaluate_core(parse_run(run_path), parse_qrels(qrels_path), ks, threshold)


def report_tsv(report: MetricReport, meta: dict | None = None) -> str:
    """The report as TSV: meta comment, count comment, one row per query, ALL."""
    names = _metric_names(report.ks)
    lines = [artifacts.comment({
        "queries": report.queries_scored,
        "without_relevant": len(report.queries_without_relevant),
        "skipped": len(report.queries_skipped),
        "missing": len(report.queries_missing),
    })]
    lines.append("\t".join(["query_id"] + names))
    for qid in sorted(report.per_query):
        row = report.per_query[qid]
        lines.append("\t".join([qid] + [f"{row[m]:.4f}" for m in names]))
    lines.append("\t".join(["ALL"] + [f"{report.means[m]:.4f}" for m in names]))
    return artifacts.render(lines, meta=meta)


# ---------------------------------------------------------------------------
# sweeps


class SweepAxis(Enum):
    DIMENSION = "dimension"
    ALPHA = "alpha"


def sweep(axis: SweepAxis, values, *, collection, queries, train_corpus, qrels,
          config, mu=None, infer_steps=None, min_count: int = 1,
          power: float = 0.75, ks=(30, 50), threshold: int = 1):
    """Train/rank/evaluate across one swept parameter.

    DIMENSION retrains the formula model per value and ranks formula-only;
    ALPHA trains once and re-ranks with the combined method per value.
    Returns [(value, MetricReport)].
    """
    from .corpus import build_vocabulary
    from .embeddings import Mode, train_formula2vec
    from .retrieval import (
        DEFAULT_ALPHA, DEFAULT_INFER_STEPS, DEFAULT_MU,
        FormulaVectorProvider, RankMethod, TextIndex, rank_queries,
    )

    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    mu = DEFAULT_MU if mu is None else mu
    infer_steps = DEFAULT_INFER_STEPS if infer_steps is None else infer_steps

    vocab = build_vocabulary(train_corpus, min_count=min_count, power=power)

    def run_dict(method, provider, index=None, alpha=DEFAULT_ALPHA):
        ranked = rank_queries(queries, collection, method, provider, index, alpha, mu)
        return {rl.query_id: list(zip(rl.ids, rl.C.tolist())) for rl in ranked}

    results = []
    if axis is SweepAxis.DIMENSION:
        for v in values:
            cfg = replace(config, dim=int(v), mode=Mode.FORMULA2VEC)
            table = train_formula2vec(train_corpus, vocab, cfg)
            run = run_dict(RankMethod.FORMULA2VEC,
                           FormulaVectorProvider(table, infer_steps=infer_steps))
            results.append((float(v), evaluate_core(run, qrels, ks, threshold)))
    elif axis is SweepAxis.ALPHA:
        cfg = replace(config, mode=Mode.FORMULA2VEC)
        table = train_formula2vec(train_corpus, vocab, cfg)
        provider = FormulaVectorProvider(table, infer_steps=infer_steps)
        index = TextIndex.build(collection, mu)
        for v in values:
            run = run_dict(RankMethod.COMBINED, provider, index, float(v))
            results.append((float(v), evaluate_core(run, qrels, ks, threshold)))
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return results


def sweep_tsv(axis: SweepAxis, results, ks=(30, 50), meta: dict | None = None) -> str:
    names = _metric_names(ks)
    lines = ["\t".join([axis.value] + names)]
    for value, report in results:
        lines.append("\t".join([f"{value:g}"] + [f"{report.means[m]:.4f}" for m in names]))
    return artifacts.render(lines, meta=meta)
