import math
import random

import numpy as np
import pytest

from mathemb.embeddings import Mode, TrainingConfig
from mathemb.errors import MalformedQrelLine, MalformedRunLine
from mathemb.evaluation import (
    MetricReport, SweepAxis, average_precision, evaluate_core, evaluate_run,
    ndcg_at_k, parse_qrels, parse_run, precision_at_k, reciprocal_rank,
    report_tsv, sweep, sweep_tsv,
)

from conftest import FIXTURE_F2V, QRELS_PATH
from oracles import oracle_ap, oracle_ndcg, oracle_precision, oracle_rr


def ranking(*pids):
    return list(pids)


class TestNdcg:
    def test_hand_case(self):
        grades = {"a": 2, "b": 0, "c": 1}
        got = ndcg_at_k(ranking("a", "b", "c"), grades, 3)
        idcg = 3.0 + 1.0 / math.log2(3)
        assert got == pytest.approx(3.5 / idcg, abs=1e-12)
        assert got == pytest.approx(0.9639, abs=5e-5)

    def test_perfect_ordering_is_one(self):
        grades = {"a": 3, "b": 2, "c": 1, "d": 0}
        assert ndcg_at_k(ranking("a", "b", "c", "d"), grades, 4) == 1.0

    def test_no_relevant_is_zero(self):
        assert ndcg_at_k(ranking("a", "b"), {"a": 0, "b": 0}, 2) == 0.0

    def test_depends_only_on_prefix(self):
        grades = {"a": 2, "b": 1, "c": 1}
        base = ndcg_at_k(ranking("a", "x", "b", "c"), grades, 2)
        assert base == ndcg_at_k(ranking("a", "x", "c", "b"), grades, 2)
        assert base == ndcg_at_k(ranking("a", "x"), grades, 2)


class TestBinaryMetrics:
    def test_average_precision_hand_case(self):
        grades = {"a": 1, "c": 1}
        got = average_precision(ranking("a", "b", "c", "d"), grades)
        assert got == pytest.approx(5 / 6, abs=1e-12)

    def test_reciprocal_rank(self):
        grades = {"c": 2}
        assert reciprocal_rank(ranking("a", "b", "c"), grades) == pytest.approx(1 / 3)
        assert reciprocal_rank(ranking("a", "b"), {}) == 0.0

    def test_precision_all_relevant(self):
        grades = {p: 1 for p in "abcde"}
        assert precision_at_k(ranking(*"abcde"), grades, 5) == 1.0

    def test_precision_fixed_denominator(self):
        assert precision_at_k(ranking("a"), {"a": 1}, 30) == pytest.approx(1 / 30)

    def test_binarization_threshold(self):
        grades = {"a": 1, "b": 2}
        assert precision_at_k(ranking("a", "b"), grades, 2, threshold=2) == 0.5
        assert average_precision(ranking("a", "b"), grades, threshold=2) == 0.5

    def test_ap_counts_unretrieved_relevant(self):
        grades = {"a": 1, "zz": 1}   # zz judged relevant but never retrieved
        assert average_precision(ranking("a", "b"), grades) == 0.5


class TestSwapAndTruncationProperties:
    def test_equal_grade_swap_changes_nothing(self):
        rng = random.Random(0)
        for _ in range(25):
            pids = [f"p{i}" for i in range(12)]
            grades = {p: rng.choice([0, 0, 1, 1, 2]) for p in pids}
            order = pids[:]
            rng.shuffle(order)
            i, j = rng.sample(range(12), 2)
            if grades[order[i]] != grades[order[j]]:
                continue
            swapped = order[:]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            for k in (3, 5, 12):
                assert ndcg_at_k(order, grades, k) == pytest.approx(
                    ndcg_at_k(swapped, grades, k), abs=1e-12)
                assert precision_at_k(order, grades, k) == precision_at_k(swapped, grades, k)
            assert average_precision(order, grades) == pytest.approx(
                average_precision(swapped, grades), abs=1e-12)
            assert reciprocal_rank(order, grades) == reciprocal_rank(swapped, grades)


class TestOracleAgreement:
    def test_random_instances(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(1, 25)
            pids = [f"p{i}" for i in range(n)]
            order = pids[:]
            rng.shuffle(order)
            judged = {p: rng.randint(0, 3) for p in pids if rng.random() < 0.7}
            grade_list = [judged.get(p, 0) for p in order]
            rel_list = [judged.get(p, 0) >= 1 for p in order]
            total_rel = sum(1 for g in judged.values() if g >= 1)
            for k in (1, 5, 10):
                assert ndcg_at_k(order, judged, k) == pytest.approx(
                    oracle_ndcg(grade_list, list(judged.values()), k), abs=1e-12)
                assert precision_at_k(order, judged, k) == pytest.approx(
                    oracle_precision(rel_list, k), abs=1e-12)
            assert average_precision(order, judged) == pytest.approx(
                oracle_ap(rel_list, total_rel), abs=1e-12)
            assert reciprocal_rank(order, judged) == pytest.approx(
                oracle_rr(rel_list), abs=1e-12)
            for k in (5, 30, 50):
                assert 0.0 <= ndcg_at_k(order, judged, k) <= 1.0
                assert 0.0 <= precision_at_k(order, judged, k) <= 1.0
            assert 0.0 <= average_precision(order, judged) <= 1.0
            assert 0.0 <= reciprocal_rank(order, judged) <= 1.0


class TestParsers:
    def test_run_round_trip(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("# header\nq1 Q0 d1 1 2.5 tag\nq1 Q0 d2 2 1.5 tag\nq2 Q0 d9 1 0.25 tag\n")
        run = parse_run(p)
        assert run["q1"] == [("d1", 2.5), ("d2", 1.5)]
        assert run["q2"] == [("d9", 0.25)]

    def test_run_resorted_by_score(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 low 1 0.1 t\nq1 Q0 high 2 0.9 t\n")
        assert [pid for pid, _ in parse_run(p)["q1"]] == ["high", "low"]

    def test_run_tie_breaks_by_page_id(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 zebra 1 0.5 t\nq1 Q0 apple 2 0.5 t\n")
        assert [pid for pid, _ in parse_run(p)["q1"]] == ["apple", "zebra"]

    @pytest.mark.parametrize("line", [
        "q1 Q0 d1 1 2.5",            # five fields
        "q1 Q0 d1 one 2.5 tag",      # bad rank
        "q1 Q0 d1 1 x tag",          # bad score
    ])
    def test_malformed_run_lines(self, tmp_path, line):
        p = tmp_path / "run.txt"
        p.write_text(line + "\n")
        with pytest.raises(MalformedRunLine):
            parse_run(p)

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
    def test_non_finite_run_score_rejected_with_line(self, tmp_path, score):
        p = tmp_path / "run.txt"
        p.write_text(f"q1 Q0 d1 1 2.5 t\nq1 Q0 d2 2 {score} t\n")
        with pytest.raises(MalformedRunLine, match=f"run.txt:2: score '{score}' is not finite"):
            parse_run(p)

    def test_duplicate_run_page(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 2.5 t\nq1 Q0 d1 2 1.5 t\n")
        with pytest.raises(MalformedRunLine):
            parse_run(p)

    def test_qrels_round_trip(self):
        qrels = parse_qrels(QRELS_PATH)
        assert qrels["q1"]["Trig_Addition"] == 2
        assert qrels["q1"]["Addition_Tables"] == 0

    @pytest.mark.parametrize("line", [
        "q1 0 d1",               # three fields
        "q1 0 d1 x",             # non-integer grade
        "q1 0 d1 -1",            # negative grade
    ])
    def test_malformed_qrel_lines(self, tmp_path, line):
        p = tmp_path / "q.txt"
        p.write_text(line + "\n")
        with pytest.raises(MalformedQrelLine):
            parse_qrels(p)

    def test_duplicate_judgment(self, tmp_path):
        p = tmp_path / "q.txt"
        p.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(MalformedQrelLine):
            parse_qrels(p)


class TestEvaluate:
    def test_single_relevant_at_rank_one(self):
        run = {"q": [("d", 1.0)]}
        qrels = {"q": {"d": 1}}
        report = evaluate_core(run, qrels, ks=(30, 50))
        row = report.per_query["q"]
        assert row["NDCG@30"] == 1.0
        assert row["MAP"] == 1.0
        assert row["MRR"] == 1.0
        assert row["P@30"] == pytest.approx(1 / 30)

    def test_queries_without_relevant_excluded_from_means(self):
        run = {"good": [("d", 1.0)], "bad": [("d", 1.0)]}
        qrels = {"good": {"d": 2}, "bad": {"d": 0}}
        report = evaluate_core(run, qrels)
        assert report.queries_scored == 1
        assert report.queries_without_relevant == ["bad"]
        assert report.means["MAP"] == 1.0

    def test_run_query_missing_from_qrels_skipped(self):
        run = {"known": [("d", 1.0)], "mystery": [("d", 1.0)]}
        qrels = {"known": {"d": 1}}
        report = evaluate_core(run, qrels)
        assert report.queries_skipped == ["mystery"]
        assert "mystery" not in report.per_query

    def test_judged_query_missing_from_run_scores_zero(self):
        run = {"q1": [("d", 1.0)]}
        qrels = {"q1": {"d": 1}, "q2": {"e": 1}, "q3": {"e": 0}}
        report = evaluate_core(run, qrels)
        assert report.queries_missing == ["q2"]
        assert report.queries_scored == 2
        assert report.per_query["q2"]["MAP"] == 0.0
        assert report.means["MAP"] == 0.5

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_below_one_rejected(self, threshold):
        # at 0 an unjudged page (grade 0) would count as relevant for P@k and
        # MRR but not for AP, which counts judged pages only
        with pytest.raises(ValueError, match="threshold"):
            evaluate_core({"q": [("d", 1.0)]}, {"q": {"e": 1}}, threshold=threshold)

    def test_evaluate_run_files(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 Trig_Addition 1 0.9 t\nq1 Q0 Ocean_Waves 2 0.5 t\n")
        report = evaluate_run(run, QRELS_PATH)
        assert report.per_query["q1"]["MRR"] == 1.0
        assert report.per_query["q1"]["NDCG@30"] == 1.0  # ideal order: grades 2,1

    def test_report_tsv_columns(self):
        report = evaluate_core({"q": [("d", 1.0)]}, {"q": {"d": 1}})
        text = report_tsv(report, meta={"seed": 0})
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines[0].split("\t") == [
            "query_id", "NDCG@30", "NDCG@50", "P@30", "P@50", "MAP", "MRR"]
        assert lines[-1].startswith("ALL\t")


@pytest.fixture()
def pipeline_inputs(fixture_collection, fixture_queries, fixture_train_corpus):
    qrels = parse_qrels(QRELS_PATH)
    config = TrainingConfig(seed=7, **FIXTURE_F2V)
    return dict(collection=fixture_collection, queries=fixture_queries,
                train_corpus=fixture_train_corpus, qrels=qrels, config=config)


class TestSweep:

    def test_dimension_axis_emits_rows(self, pipeline_inputs):
        fast = dict(pipeline_inputs)
        fast["config"] = TrainingConfig(dim=300, window=5, negatives=5, epochs=3,
                                        lr_start=0.05, lr_end=0.001, seed=7,
                                        mode=Mode.FORMULA2VEC)
        rows = sweep(SweepAxis.DIMENSION, [10, 50, 100], **fast)
        assert [v for v, _ in rows] == [10.0, 50.0, 100.0]
        assert all(isinstance(r, MetricReport) for _, r in rows)
        tsv = sweep_tsv(SweepAxis.DIMENSION, rows)
        lines = [ln for ln in tsv.splitlines() if not ln.startswith("#")]
        assert lines[0].startswith("dimension\tNDCG@30")
        assert len(lines) == 4

    def test_alpha_axis_limits(self, pipeline_inputs, fixture_index):
        from mathemb.embeddings import train_formula2vec
        from mathemb.retrieval import FormulaVectorProvider, RankMethod, rank_pages
        from mathemb.corpus import build_vocabulary

        rows = sweep(SweepAxis.ALPHA, [0.0, 1.0, 4.0, 1e6], **pipeline_inputs)
        by_alpha = {v: r for v, r in rows}

        # reference single-method reports computed independently
        vocab = build_vocabulary(pipeline_inputs["train_corpus"])
        table = train_formula2vec(pipeline_inputs["train_corpus"], vocab,
                                  pipeline_inputs["config"])
        provider = FormulaVectorProvider(table, infer_steps=50)
        f2v_run, lm_run = {}, {}
        for q in pipeline_inputs["queries"]:
            f2v_run[q.query_id] = [(e.page_id, e.C) for e in rank_pages(
                q, pipeline_inputs["collection"], RankMethod.FORMULA2VEC,
                provider=provider).entries]
            lm_run[q.query_id] = [(e.page_id, e.C) for e in rank_pages(
                q, pipeline_inputs["collection"], RankMethod.LM,
                index=fixture_index).entries]
        f2v_report = evaluate_core(f2v_run, pipeline_inputs["qrels"])
        lm_report = evaluate_core(lm_run, pipeline_inputs["qrels"])

        for metric, value in by_alpha[0.0].means.items():
            assert value == pytest.approx(f2v_report.means[metric], abs=1e-12)
        for metric, value in by_alpha[1e6].means.items():
            assert value == pytest.approx(lm_report.means[metric], abs=1e-12)

    def test_empty_values_rejected(self, pipeline_inputs):
        with pytest.raises(ValueError):
            sweep(SweepAxis.ALPHA, [], **pipeline_inputs)
