import itertools
import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathemb import artifacts
from mathemb.corpus import Collection, Page, Query, normalize_text
from mathemb.embeddings import infer_vector
from mathemb.errors import (
    DuplicatePageId, MalformedRecord, NegativeAlpha, NoQueryFormulae, UnknownPage, ZeroVector,
)
from mathemb.retrieval import (
    NO_FORMULA_FLOOR, FormulaVectorProvider, RankedList, RankMethod, TextIndex, _content_seed,
    _minmax, combined_score, formula_page_score, lm_score, rank_pages, rank_queries, write_run,
)
from mathemb.tokenizer import TokenizedFormula, tokenize

from oracles import (
    oracle_lm_score, oracle_page_score, oracle_run_lines, oracle_text_index_arrays,
)


class StubProvider:
    """vectors_for backed by a fixed id->vector map (None = unresolvable)."""

    def __init__(self, mapping):
        self.mapping = mapping

    def vectors_for(self, formulae):
        return [self.mapping.get(f.id) for f in formulae]


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


# query ids, page ids and tags: % directives, format braces, non-ASCII text
RUN_TEXT = st.one_of(st.sampled_from(["%", "%s", "%%", "{}", "%d%", "%(q)s", "é∑", "q1"]),
                     st.text(st.characters(exclude_categories=("Cs",)), max_size=6))
# -0.0, halfway cases at the 6th decimal, non-finite and arbitrary floats
SCORES = st.one_of(st.sampled_from([-0.0, 0.0, 5e-7, -5e-7, 2.5e-6, 1.0000005, 0.1234565,
                                    -1.0, 1e300, math.inf, -math.inf, math.nan]),
                   st.floats())


class TestTextIndex:
    def test_invariants_on_fixture(self, fixture_collection, fixture_index):
        idx = fixture_index
        terms = list(idx.term_id)
        assert idx.page_ids == [p.page_id for p in fixture_collection.pages]
        for i, p in enumerate(fixture_collection.pages):
            start, end = idx.offsets[i], idx.offsets[i + 1]
            tf = {terms[t]: int(c) for t, c in zip(idx.term_ids[start:end], idx.tf[start:end])}
            assert tf == Counter(p.text_terms)
            assert idx.page_len[i] == len(p.text_terms)
        every_term = Counter(t for p in fixture_collection.pages for t in p.text_terms)
        assert {term: int(idx.coll_tf[i]) for term, i in idx.term_id.items()} == every_term
        assert idx.coll_len == sum(idx.page_len) == sum(every_term.values())

    @given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "\x00", "é"]),
                                    st.integers(1, 5)), max_size=6))
    def test_arrays_match_entry_at_a_time_oracle(self, counts):
        pages = [(f"p{i}", tf) for i, tf in enumerate(counts)]
        idx = TextIndex(pages)
        term_id, term_ids, tf, offsets = oracle_text_index_arrays(pages)
        assert list(idx.term_id.items()) == list(term_id.items())
        assert idx.term_ids.tolist() == term_ids and idx.tf.tolist() == tf
        assert idx.offsets.tolist() == offsets
        assert idx.term_ids.dtype == np.intp and idx.tf.dtype == np.int64

    def test_mu_positive_required(self, fixture_collection):
        for mu in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                TextIndex.build(fixture_collection, mu=mu)

    def test_save_load_round_trip(self, fixture_index, tmp_path):
        p1 = tmp_path / "i1.txt"
        p2 = tmp_path / "i2.txt"
        fixture_index.save(p1)
        loaded = TextIndex.load(p1)
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.coll_len == fixture_index.coll_len
        assert loaded.mu == fixture_index.mu

    @pytest.mark.parametrize("field,value,match", [
        ("collection_length", 1, "i.txt: collection_length 1 is not the sum"),
        ("length", 1, "i.txt:3: page .* has length 1"),
        ("mu", 0, "i.txt:2: mu must be > 0"),
        ("mu", math.nan, "i.txt:2: mu must be > 0 and finite, got nan"),
        ("mu", math.inf, "i.txt:2: mu must be > 0 and finite, got inf"),
        ("tf", {"a": 2, "b": -1}, "i.txt:3: page .* has a count that is not an integer > 0"),
        ("tf", {"a": 1.5}, "i.txt:3: page .* has a count that is not an integer > 0"),
        ("mu", "2000", "i.txt:2: mu must be > 0 and finite, got '2000'"),
        ("mu", True, "i.txt:2: mu must be > 0 and finite, got True"),
        ("collection_length", "371", "i.txt: collection_length '371' is not the sum of the "
                                     "page lengths, 371$"),
        ("pages", 99, "i.txt: pages 99 is not the number of page records, 16$"),
        ("length", 27.9, "i.txt:3: page .* has length 27.9, but its term counts sum to 27$"),
    ])
    def test_inconsistent_index_rejected(self, fixture_index, tmp_path, field, value, match):
        p = tmp_path / "i.txt"
        fixture_index.save(p)
        lines = p.read_text().splitlines()
        line_no = 1 if field in ("collection_length", "mu", "pages") else 2
        rec = json.loads(lines[line_no])
        rec[field] = value
        lines[line_no] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=match):
            TextIndex.load(p)

    def test_repeated_page_record_rejected_with_line(self, fixture_index, tmp_path):
        # the first page record (line 3) written again at the end
        p = tmp_path / "i.txt"
        fixture_index.save(p)
        lines = p.read_text().splitlines()
        lines.append(lines[2])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DuplicatePageId, match=f"i.txt:{len(lines)}: duplicate page_id "
                                                  f"'{fixture_index.page_ids[0]}'"):
            TextIndex.load(p)


class TestLmScore:
    def one_page_index(self):
        coll = Collection()
        coll.pages.append(Page("d", "d", normalize_text("a b a"), []))
        return TextIndex.build(coll, mu=1.0)

    def test_hand_computed_smoothing(self):
        idx = self.one_page_index()
        got = lm_score(["a"], ["d"], idx)[0]
        assert got == pytest.approx(math.log((2 + 1 * (2 / 3)) / (3 + 1)), abs=1e-12)
        assert got == pytest.approx(math.log(0.66667), abs=1e-5)

    def test_unknown_terms_skipped(self):
        idx = self.one_page_index()
        assert lm_score(["zzz"], ["d"], idx)[0] == 0.0
        assert lm_score(["a", "zzz"], ["d"], idx)[0] == lm_score(["a"], ["d"], idx)[0]

    def test_empty_keywords_scores_zero(self, fixture_collection, fixture_index):
        ids = [p.page_id for p in fixture_collection.pages]
        assert lm_score([], ids, fixture_index).tolist() == [0.0] * len(ids)

    def test_unknown_page(self, fixture_index):
        with pytest.raises(UnknownPage, match="nope"):
            lm_score(["a"], [fixture_index.page_ids[0], "nope"], fixture_index)

    def test_huge_mu_makes_pages_tie(self, fixture_collection):
        idx = TextIndex.build(fixture_collection, mu=1e12)
        vals = lm_score(["matrix", "inverse"], idx.page_ids, idx)
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
            return lm_score(["term"], ["A", "B"], idx).tolist()

        texts = ["term base words", "term term base words", "term term term base words"]
        previous_a = -math.inf
        for text in texts:
            a, b = scores(text)
            assert a > previous_a
            assert a > b
            previous_a = a

    @pytest.mark.parametrize("mu", [None, 1.0, 37.5])
    def test_matches_page_at_a_time_oracle_exactly(self, fixture_collection,
                                                   fixture_queries, fixture_index, mu):
        # every page in a shuffled order, fixture queries plus a repeated
        # keyword, an out-of-vocabulary keyword and no keyword at all
        pages = list(fixture_collection.pages)
        random.Random(3).shuffle(pages)
        terms = [p.text_terms for p in fixture_collection.pages]
        vocab = sorted({t for p in pages for t in p.text_terms})
        keyword_lists = [q.keywords for q in fixture_queries] + [
            [vocab[0], vocab[5], vocab[0]], ["zzz-not-a-term", vocab[1]], []]
        for keywords in keyword_lists:
            got = lm_score(keywords, [p.page_id for p in pages], fixture_index, mu=mu)
            want = [oracle_lm_score(keywords, p.text_terms, terms, mu or fixture_index.mu)
                    for p in pages]
            assert got.tolist() == want


    def test_matches_oracle_exactly_on_random_collections(self):
        # thousands of distinct log arguments, where np.log and math.log
        # disagree in the last bit on some
        rng = random.Random(29)
        words = [f"w{i}" for i in range(40)]
        for mu in (0.5, 17.0, 2000.0):
            terms = [rng.choices(words, k=rng.randint(0, 60)) for _ in range(150)]
            coll = Collection()
            coll.pages = [Page(f"p{i}", "", t, []) for i, t in enumerate(terms)]
            idx = TextIndex.build(coll, mu=mu)
            for _ in range(10):
                keywords = rng.choices(words + ["unseen"], k=rng.randint(1, 5))
                got = lm_score(keywords, idx.page_ids, idx)
                assert got.tolist() == [oracle_lm_score(keywords, t, terms, mu) for t in terms]


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
        got = combined_score(np.array([0.2, 1.0]), np.array([0.6, 0.0]), 4.0)
        assert got == pytest.approx([0.52, 0.2], abs=1e-12)

    def test_alpha_zero_is_formula_only(self):
        assert combined_score(np.array([0.3]), np.array([0.9]), 0.0).tolist() == [0.3]

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=5), st.floats(0, 1e6))
    def test_fixed_point(self, xs, alpha):
        x = np.array(xs)
        assert combined_score(x, x, alpha) == pytest.approx(x, abs=1e-9)

    def test_negative_alpha(self):
        for alpha in (-0.1, math.nan, math.inf):
            with pytest.raises(NegativeAlpha):
                combined_score(np.array([0.5]), np.array([0.5]), alpha)

    def test_large_alpha_tends_to_text(self):
        got = combined_score(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1e9)
        assert got == pytest.approx([1.0, 0.0], abs=1e-8)


class TestMinMax:
    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=10, unique=True),
           st.floats(0.1, 50), st.floats(-100, 100))
    def test_affine_invariance(self, values, scale, shift):
        raw = np.array(values, dtype=float)
        a = _minmax(raw)
        b = _minmax(scale * raw + shift)
        assert a == pytest.approx(b, abs=1e-9)

    def test_constant_scores_map_to_zero(self):
        assert _minmax(np.array([3.0, 3.0])).tolist() == [0.0, 0.0]

    def test_no_scores_map_to_none(self):
        # a store with no pages gives every query an empty score array
        out = _minmax(np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_range(self):
        out = _minmax(np.array([-5.0, 1.0, 3.0]))
        assert out[0] == 0.0 and out[2] == 1.0 and 0.0 < out[1] < 1.0


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
                                          provider):
        # the fixture plus pages of identical text and formulae (exact ties
        # in every method) and a keyword-only query, which gives combined
        # C = 0.0 for the pages without its keywords
        coll = Collection()
        coll.formulas = dict(fixture_collection.formulas)
        coll.pages = list(fixture_collection.pages)
        for source in (coll.pages[0], coll.pages[-1]):
            coll.pages += [Page(f"{pid}{source.page_id}", source.title, source.text_terms,
                                source.formula_ids) for pid in ("twinB", "twinA")]
        random.Random(11).shuffle(coll.pages)
        queries = list(fixture_queries) + [Query("kw", ["matrix"], [])]
        index = TextIndex.build(coll)
        for method, q in itertools.product(RankMethod, queries):
            rl = rank_pages(q, coll, method, provider=provider, index=index)
            if rl.no_formulae and method is RankMethod.FORMULA2VEC:
                assert rl.page_ids() == [] and rl.entries == []
                continue
            assert [e.page_id for e in rl.entries] == rl.page_ids() == rl.ids
            want = sorted(rl.entries, key=lambda e: (-e.C, e.page_id))
            assert rl.page_ids() == [e.page_id for e in want]
            assert sorted(rl.ids) == sorted(p.page_id for p in coll.pages)
            assert any(a.C == b.C for a, b in zip(rl.entries, rl.entries[1:]))

    @pytest.mark.parametrize("method", list(RankMethod), ids=lambda m: m.value)
    def test_ties_rank_in_python_string_order(self, method):
        # a numpy "<U" array drops trailing NULs, so there "a\x00" == "a"
        ids = ["é", "a0", "a\x00", "B", "a"]
        coll, mapping = Collection(), {}
        for pid in ids:
            coll.formulas[f"{pid}#f0"] = TokenizedFormula(f"{pid}#f0", tokenize("x + y = z"))
            coll.pages.append(Page(pid, pid, ["w0", "v"], [f"{pid}#f0"]))
            mapping[f"{pid}#f0"] = unit_at(0.5)
        query, qmap = make_query([unit_at(0.9)])
        rl = rank_pages(query, coll, method, provider=StubProvider({**mapping, **qmap}),
                        index=TextIndex.build(coll))
        assert len(set(rl.C.tolist())) == 1
        assert rl.ids == sorted(ids) == ["B", "a", "a\x00", "a0", "é"]

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


class TestRankQueries:
    @pytest.mark.parametrize("method", list(RankMethod), ids=lambda m: m.value)
    def test_equals_rank_pages_per_query(self, fixture_collection, fixture_queries,
                                         fixture_index, trained_formula_table, method):
        # a fresh provider per side: one batch for the whole search against
        # one batch per query, with the memo filling up as they go
        oov = TokenizedFormula("oov#f0", tokenize("\\nosuchtok \\another"))
        mixed = [fixture_queries[1].formulae[0], oov, fixture_queries[3].formulae[0]]
        queries = [Query("mixed", ["decay"], mixed), *fixture_queries,
                   Query("kw", ["matrix"], []), Query("oov", ["matrix"], [oov])]
        kw = dict(index=fixture_index, alpha=2.5)
        together = rank_queries(queries, fixture_collection, method,
                                FormulaVectorProvider(trained_formula_table), **kw)
        alone = FormulaVectorProvider(trained_formula_table)
        apart = [rank_pages(q, fixture_collection, method, alone, **kw) for q in queries]
        assert len(together) == len(apart) == len(queries)
        for a, b in zip(together, apart):
            assert a.query_id == b.query_id and a.ids == b.ids
            assert a.no_formulae == b.no_formulae
            for name in "FTC":
                assert np.array_equal(getattr(a, name), getattr(b, name)), (a.query_id, name)
        assert [rl.no_formulae for rl in together[-2:]] == [method is not RankMethod.LM] * 2

    @pytest.mark.parametrize("method,calls", [(RankMethod.FORMULA2VEC, 1),
                                              (RankMethod.LM, 0), (RankMethod.COMBINED, 1)],
                             ids=lambda m: getattr(m, "value", m))
    def test_one_vectors_for_call_per_search(self, fixture_collection, fixture_queries,
                                             fixture_index, provider, method, calls):
        class Counting:
            count = 0

            def vectors_for(self, formulae):
                Counting.count += 1
                return provider.vectors_for(formulae)

        ranked = rank_queries(fixture_queries, fixture_collection, method, Counting(),
                              fixture_index)
        assert len(ranked) == len(fixture_queries) and Counting.count == calls


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

    def test_unseen_formula_is_a_lone_inference(self, trained_formula_table,
                                                fixture_collection):
        # inference runs at the model's own rate, so an unseen formula's
        # search vector is infer_vector's under the search's content seed
        unseen = [f for f in fixture_collection.formulas.values()
                  if trained_formula_table.formula_vector(f.id) is None]
        assert unseen
        for f in unseen:
            seed = _content_seed(trained_formula_table.config.seed, f)
            alone = infer_vector(f.tokens, trained_formula_table, seed=seed)
            searched = FormulaVectorProvider(trained_formula_table).vectors_for([f])[0]
            assert np.array_equal(alone, searched), f.id


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

    @given(st.lists(st.lists(st.tuples(RUN_TEXT, SCORES), max_size=5), max_size=4),
           st.lists(RUN_TEXT, min_size=4, max_size=4), RUN_TEXT, st.integers(-1, 7))
    def test_bytes_match_one_f_string_per_line(self, lists, query_ids, tag, top):
        ranked = [RankedList(qid, [pid for pid, _ in entries], np.zeros(len(entries)),
                             np.zeros(len(entries)), np.array([c for _, c in entries]),
                             no_formulae=not entries)
                  for qid, entries in zip(query_ids, lists)]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.run", Path(tmp) / "want.run"
            write_run(ranked, got, tag=tag, top=top, meta={"seed": 1})
            artifacts.write(want, oracle_run_lines(ranked, tag, top), meta={"seed": 1})
            assert got.read_bytes() == want.read_bytes()

