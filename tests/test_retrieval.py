import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathemb.corpus import Collection, Page, Query, normalize_text
from mathemb.errors import (
    NegativeAlpha, NoQueryFormulae, UnknownPage, ZeroVector,
)
from mathemb.retrieval import (
    NO_FORMULA_FLOOR, FormulaVectorProvider, RankMethod, TextIndex, _minmax,
    combined_score, formula_page_score, lm_score, rank_pages, write_run,
)
from mathemb.tokenizer import TokenizedFormula, tokenize

from oracles import oracle_page_score


class StubProvider:
    """vector_for backed by a fixed id->vector map (None = unresolvable)."""

    def __init__(self, mapping):
        self.mapping = mapping

    def vector_for(self, formula):
        return self.mapping.get(formula.id)


def unit_at(cos_value):
    return np.array([cos_value, math.sqrt(1.0 - cos_value ** 2)])


def make_collection(page_formula_vecs):
    """Pages named p0..pN; formula ids pi#fk mapped to given vectors."""
    coll = Collection()
    mapping = {}
    for i, vecs in enumerate(page_formula_vecs):
        pid = f"p{i}"
        fids = []
        for k, vec in enumerate(vecs):
            fid = f"{pid}#f{k}"
            coll.formulas[fid] = TokenizedFormula(fid, tokenize("x + y = z + 1"))
            mapping[fid] = vec
            fids.append(fid)
        coll.pages.append(Page(pid, pid, [f"w{i}"], fids))
    return coll, mapping


def make_query(vecs):
    formulae = [TokenizedFormula(f"q#f{k}", tokenize("x + y = z + 1"))
                for k in range(len(vecs))]
    mapping = {f"q#f{k}": v for k, v in enumerate(vecs)}
    return Query("q", ["w0"], formulae), mapping


class TestTextIndex:
    def test_invariants_on_fixture(self, fixture_collection, fixture_index):
        for p in fixture_collection.pages:
            assert sum(fixture_index.page_tf[p.page_id].values()) == \
                fixture_index.page_len[p.page_id] == len(p.text_terms)
        for term, cf in fixture_index.coll_tf.items():
            assert cf == sum(tf.get(term, 0) for tf in fixture_index.page_tf.values())
        assert fixture_index.coll_len == sum(fixture_index.page_len.values())

    def test_mu_positive_required(self, fixture_collection):
        with pytest.raises(ValueError):
            TextIndex.build(fixture_collection, mu=0.0)

    def test_save_load_round_trip(self, fixture_index, tmp_path):
        p1 = tmp_path / "i1.txt"
        p2 = tmp_path / "i2.txt"
        fixture_index.save(p1)
        loaded = TextIndex.load(p1)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.coll_len == fixture_index.coll_len
        assert loaded.mu == fixture_index.mu


class TestLmScore:
    def one_page_index(self):
        coll = Collection()
        coll.pages.append(Page("d", "d", normalize_text("a b a"), []))
        return TextIndex.build(coll, mu=1.0)

    def test_hand_computed_smoothing(self):
        idx = self.one_page_index()
        got = lm_score(["a"], "d", idx)
        assert got == pytest.approx(math.log((2 + 1 * (2 / 3)) / (3 + 1)), abs=1e-12)
        assert got == pytest.approx(math.log(0.66667), abs=1e-5)

    def test_unknown_terms_skipped(self):
        idx = self.one_page_index()
        assert lm_score(["zzz"], "d", idx) == 0.0
        assert lm_score(["a", "zzz"], "d", idx) == lm_score(["a"], "d", idx)

    def test_empty_keywords_scores_zero(self, fixture_collection, fixture_index):
        for p in fixture_collection.pages:
            assert lm_score([], p.page_id, fixture_index) == 0.0

    def test_unknown_page(self, fixture_index):
        with pytest.raises(UnknownPage):
            lm_score(["a"], "nope", fixture_index)

    def test_huge_mu_makes_pages_tie(self, fixture_collection):
        idx = TextIndex.build(fixture_collection, mu=1e12)
        scores = {p.page_id: lm_score(["matrix", "inverse"], p.page_id, idx)
                  for p in fixture_collection.pages}
        vals = list(scores.values())
        assert max(vals) - min(vals) < 1e-9

    def test_term_addition_monotonicity(self):
        # adding occurrences of the query term to page A (collection stats
        # recomputed) never drops A's own score and never lets the unchanged
        # page B overtake it
        def scores(a_text):
            coll = Collection()
            coll.pages.append(Page("A", "A", normalize_text(a_text), []))
            coll.pages.append(Page("B", "B", normalize_text("filler words here"), []))
            idx = TextIndex.build(coll, mu=10.0)
            return lm_score(["term"], "A", idx), lm_score(["term"], "B", idx)

        texts = ["term base words", "term term base words", "term term term base words"]
        previous_a = -math.inf
        for text in texts:
            a, b = scores(text)
            assert a > previous_a
            assert a > b
            previous_a = a


class TestFormulaPageScore:
    def test_inner_mean(self):
        coll, mapping = make_collection([[unit_at(0.4), unit_at(0.8)]])
        query, qmap = make_query([np.array([1.0, 0.0])])
        provider = StubProvider({**mapping, **qmap})
        got = formula_page_score(query, coll.pages[0], provider, coll)
        assert got == pytest.approx(0.6, abs=1e-12)

    def test_outer_mean(self):
        # two query formulae whose page means are 0.2 and 0.6
        coll, mapping = make_collection([[unit_at(0.2)]])
        query, qmap = make_query([np.array([1.0, 0.0]), unit_at(math.cos(
            math.acos(0.2) - math.acos(0.6)))])
        # simpler: page holds one formula at angle a; query vecs chosen so the
        # cosines to it are 0.2 and 0.6
        page_vec = unit_at(0.2)
        q1 = np.array([1.0, 0.0])                      # cos = 0.2
        theta = math.acos(0.2) - math.acos(0.6)
        q2 = np.array([math.cos(theta), math.sin(theta)])  # cos = 0.6
        mapping["p0#f0"] = page_vec
        qmap = {"q#f0": q1, "q#f1": q2}
        query = Query("q", [], [TokenizedFormula("q#f0", tokenize("x + 1")),
                                TokenizedFormula("q#f1", tokenize("y + 1"))])
        provider = StubProvider({**mapping, **qmap})
        got = formula_page_score(query, coll.pages[0], provider, coll)
        assert got == pytest.approx(0.4, abs=1e-12)

    def test_no_query_formulae(self, fixture_collection):
        q = Query("q", ["kw"], [])
        provider = StubProvider({})
        with pytest.raises(NoQueryFormulae):
            formula_page_score(q, fixture_collection.pages[0], provider, fixture_collection)

    def test_page_without_formulas_gets_floor(self):
        coll, _ = make_collection([[]])
        query, qmap = make_query([np.array([1.0, 0.0])])
        got = formula_page_score(query, coll.pages[0], StubProvider(qmap), coll)
        assert got == NO_FORMULA_FLOOR

    def test_unresolvable_page_formula_skipped(self):
        coll, mapping = make_collection([[unit_at(0.4), unit_at(0.8)]])
        mapping["p0#f0"] = None
        query, qmap = make_query([np.array([1.0, 0.0])])
        got = formula_page_score(query, coll.pages[0], StubProvider({**mapping, **qmap}), coll)
        assert got == pytest.approx(0.8, abs=1e-12)

    def test_matches_flat_double_loop_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n_q = int(rng.integers(1, 4))
            n_p = int(rng.integers(1, 5))
            dim = int(rng.integers(2, 6))
            qvecs = [rng.normal(size=dim) for _ in range(n_q)]
            pvecs = [rng.normal(size=dim) for _ in range(n_p)]
            coll, mapping = make_collection([pvecs])
            formulae = [TokenizedFormula(f"q#f{k}", tokenize("x + 1")) for k in range(n_q)]
            query = Query("q", [], formulae)
            mapping.update({f"q#f{k}": v for k, v in enumerate(qvecs)})
            got = formula_page_score(query, coll.pages[0], StubProvider(mapping), coll)
            assert got == pytest.approx(oracle_page_score(qvecs, pvecs), abs=1e-12)

    def test_tiny_scale_vectors_match_oracle(self):
        # at 1e-100 each |u|^2 |v|^2 product underflows to 0
        rng = np.random.default_rng(17)
        for _ in range(20):
            qvecs = [rng.normal(size=4) * 1e-100 for _ in range(2)]
            pvecs = [rng.normal(size=4) * 1e-100 for _ in range(3)]
            coll, mapping = make_collection([pvecs])
            formulae = [TokenizedFormula(f"q#f{k}", tokenize("x + 1")) for k in range(2)]
            query = Query("q", [], formulae)
            mapping.update({f"q#f{k}": v for k, v in enumerate(qvecs)})
            got = formula_page_score(query, coll.pages[0], StubProvider(mapping), coll)
            assert got == pytest.approx(oracle_page_score(qvecs, pvecs), abs=1e-12)


class TestCombinedScore:
    def test_alpha_four_substitution(self):
        assert combined_score(0.2, 0.6, 4.0) == pytest.approx(0.52, abs=1e-12)

    def test_alpha_zero_is_formula_only(self):
        assert combined_score(0.3, 0.9, 0.0) == 0.3

    @given(st.floats(0, 1), st.floats(0, 1e6))
    def test_fixed_point(self, x, alpha):
        assert combined_score(x, x, alpha) == pytest.approx(x, abs=1e-9)

    def test_negative_alpha(self):
        with pytest.raises(NegativeAlpha):
            combined_score(0.5, 0.5, -0.1)

    def test_large_alpha_tends_to_text(self):
        assert combined_score(0.0, 1.0, 1e9) == pytest.approx(1.0, abs=1e-8)


class TestMinMax:
    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=10, unique=True),
           st.floats(0.1, 50), st.floats(-100, 100))
    def test_affine_invariance(self, values, scale, shift):
        raw = {f"p{i}": float(v) for i, v in enumerate(values)}
        transformed = {k: scale * v + shift for k, v in raw.items()}
        a = _minmax(raw)
        b = _minmax(transformed)
        for k in raw:
            assert a[k] == pytest.approx(b[k], abs=1e-9)

    def test_constant_scores_map_to_zero(self):
        assert _minmax({"a": 3.0, "b": 3.0}) == {"a": 0.0, "b": 0.0}

    def test_range(self):
        out = _minmax({"a": -5.0, "b": 1.0, "c": 3.0})
        assert out["a"] == 0.0 and out["c"] == 1.0 and 0.0 < out["b"] < 1.0


@pytest.fixture(scope="module")
def provider(trained_formula_table):
    return FormulaVectorProvider(trained_formula_table, infer_steps=50)


class TestRankPages:
    def test_alpha_zero_matches_formula_ranking(self, fixture_collection,
                                                fixture_queries, fixture_index, provider):
        for q in fixture_queries:
            f2v = rank_pages(q, fixture_collection, RankMethod.FORMULA2VEC, provider=provider)
            comb = rank_pages(q, fixture_collection, RankMethod.COMBINED,
                              provider=provider, index=fixture_index, alpha=0.0)
            assert comb.page_ids() == f2v.page_ids()

    def test_alpha_huge_matches_lm_ranking(self, fixture_collection,
                                           fixture_queries, fixture_index, provider):
        for q in fixture_queries:
            lm = rank_pages(q, fixture_collection, RankMethod.LM, index=fixture_index)
            comb = rank_pages(q, fixture_collection, RankMethod.COMBINED,
                              provider=provider, index=fixture_index, alpha=1e6)
            assert comb.page_ids() == lm.page_ids()

    def test_every_page_scored_and_unique(self, fixture_collection, fixture_queries,
                                          fixture_index, provider):
        rl = rank_pages(fixture_queries[0], fixture_collection, RankMethod.COMBINED,
                        provider=provider, index=fixture_index)
        ids = rl.page_ids()
        assert sorted(ids) == sorted(p.page_id for p in fixture_collection.pages)
        assert len(set(ids)) == len(ids)

    def test_sorted_with_page_id_tiebreak(self, fixture_collection, fixture_queries,
                                          fixture_index):
        rl = rank_pages(fixture_queries[0], fixture_collection, RankMethod.LM,
                        index=fixture_index)
        for a, b in zip(rl.entries, rl.entries[1:]):
            assert (a.C, b.page_id) > (b.C, a.page_id) or a.C > b.C or \
                (a.C == b.C and a.page_id < b.page_id)

    def test_combined_invariant_exact(self, fixture_collection, fixture_queries,
                                      fixture_index, provider):
        alpha = 4.0
        rl = rank_pages(fixture_queries[0], fixture_collection, RankMethod.COMBINED,
                        provider=provider, index=fixture_index, alpha=alpha)
        for e in rl.entries:
            assert e.C == (e.F + alpha * e.T) / (1 + alpha)
            assert 0.0 <= e.F <= 1.0 and 0.0 <= e.T <= 1.0

    def test_permutation_invariance(self, fixture_collection, fixture_queries,
                                    fixture_index, provider):
        shuffled = Collection()
        shuffled.pages = list(fixture_collection.pages)
        random.Random(5).shuffle(shuffled.pages)
        shuffled.formulas = fixture_collection.formulas
        for q in fixture_queries[:2]:
            a = rank_pages(q, fixture_collection, RankMethod.COMBINED,
                           provider=provider, index=fixture_index)
            b = rank_pages(q, shuffled, RankMethod.COMBINED,
                           provider=provider, index=fixture_index)
            assert a.page_ids() == b.page_ids()

    def test_pages_with_identical_formula_content_tie_exactly(
            self, fixture_collection, fixture_queries, provider):
        # two extra pages whose unseen formulae repeat one content (inferred
        # once, by content) among the fixture pages' trained formulae
        coll = Collection()
        coll.pages = list(fixture_collection.pages)
        coll.formulas = dict(fixture_collection.formulas)
        latex = ["\\sin x \\cos x = \\frac { 1 } { 2 } \\sin 2 x", "a ^ 2 + b ^ 2"]
        for pid in ("dupA", "dupB"):
            fids = [f"{pid}#f{k}" for k in range(len(latex))]
            for fid, tex in zip(fids, latex):
                coll.formulas[fid] = TokenizedFormula(fid, tokenize(tex))
            coll.pages.append(Page(pid, pid, [], fids))
        for q in fixture_queries:
            scores = {e.page_id: e.C for e in
                      rank_pages(q, coll, RankMethod.FORMULA2VEC, provider=provider).entries}
            assert scores["dupA"] == scores["dupB"]

    def test_formula_free_page_ranks_below_formula_pages(self, fixture_collection,
                                                         fixture_queries, provider):
        rl = rank_pages(fixture_queries[0], fixture_collection, RankMethod.FORMULA2VEC,
                        provider=provider)
        assert rl.page_ids()[-1] == "Plain_History"

    def test_missing_inputs_rejected(self, fixture_collection, fixture_queries,
                                     fixture_index, provider):
        with pytest.raises(ValueError):
            rank_pages(fixture_queries[0], fixture_collection, RankMethod.FORMULA2VEC)
        with pytest.raises(ValueError):
            rank_pages(fixture_queries[0], fixture_collection, RankMethod.LM)
        with pytest.raises(NegativeAlpha):
            rank_pages(fixture_queries[0], fixture_collection, RankMethod.COMBINED,
                       provider=provider, index=fixture_index, alpha=-1.0)


class TestProvider:
    def test_trained_id_resolves_to_trained_row(self, trained_formula_table, provider,
                                                fixture_train_corpus):
        f = fixture_train_corpus[0]
        np.testing.assert_array_equal(provider.vector_for(f),
                                      trained_formula_table.formula_vector(f.id))

    def test_unseen_formula_inferred_deterministically(self, trained_formula_table):
        p1 = FormulaVectorProvider(trained_formula_table, infer_steps=10)
        p2 = FormulaVectorProvider(trained_formula_table, infer_steps=10)
        f = TokenizedFormula("new#f0", tokenize("\\sin x + \\cos y = 1"))
        np.testing.assert_array_equal(p1.vector_for(f), p2.vector_for(f))

    def test_same_content_same_vector(self, trained_formula_table):
        p = FormulaVectorProvider(trained_formula_table, infer_steps=10)
        f1 = TokenizedFormula("a#f0", tokenize("\\sin x + \\cos y = 1"))
        f2 = TokenizedFormula("b#f9", tokenize("\\sin x + \\cos y = 1"))
        np.testing.assert_array_equal(p.vector_for(f1), p.vector_for(f2))

    def test_fully_oov_formula_resolves_to_none(self, trained_formula_table):
        p = FormulaVectorProvider(trained_formula_table, infer_steps=10)
        f = TokenizedFormula("a#f0", tokenize("\\nosuchtok \\another"))
        assert p.vector_for(f) is None


class TestRunFile:
    def test_format_and_truncation(self, fixture_collection, fixture_queries,
                                   fixture_index, tmp_path):
        ranked = [rank_pages(q, fixture_collection, RankMethod.LM, index=fixture_index)
                  for q in fixture_queries]
        out = tmp_path / "run.txt"
        write_run(ranked, out, tag="t1", top=5, meta={"seed": 1})
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        body = [ln for ln in lines if not ln.startswith("#")]
        assert len(body) == 5 * len(fixture_queries)
        qid, q0, pid, rank, score, tag = body[0].split()
        assert (qid, q0, rank, tag) == ("q1", "Q0", "1", "t1")
        float(score)
