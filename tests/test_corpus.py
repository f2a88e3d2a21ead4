import json
import math

import numpy as np
import pytest

from mathemb.corpus import (
    Collection, Page, build_vocabulary, filter_corpus, ingest_pages, ingest_queries,
    load_collection, load_training_corpus, normalize_text, save_collection,
    save_training_corpus,
)
from mathemb.errors import (
    DuplicatePageId, DuplicateQueryId, EmptyVocabulary, MalformedRecord,
)
from mathemb.tokenizer import TokenClass, TokenizedFormula, tokenize

from conftest import COLLECTION_PATH, QUERIES_PATH, TEST_DATA


def formulas_from(*latexes):
    return [TokenizedFormula(f"f{i}", tokenize(s)) for i, s in enumerate(latexes)]


class TestIngest:
    def test_mini_fixture_counts(self):
        coll = ingest_pages(TEST_DATA / "mini2.jsonl")
        assert coll.page_count == 2
        assert coll.formula_count == 3
        assert coll.pages[0].formula_ids == ["p1#f0", "p1#f1"]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        coll = ingest_pages(p)
        assert coll.page_count == 0 and coll.formula_count == 0

    def test_duplicate_page_id(self, tmp_path):
        p = tmp_path / "dup.jsonl"
        rec = {"page_id": "p", "title": "", "text": "", "formulas": []}
        p.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DuplicatePageId):
            ingest_pages(p)

    def test_malformed_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"page_id": "a", "text": "", "formulas": []}\nnot json\n')
        with pytest.raises(MalformedRecord, match="bad.jsonl:2:"):
            ingest_pages(p)

    def test_page_id_with_whitespace_rejected(self, tmp_path):
        p = tmp_path / "ws.jsonl"
        p.write_text(json.dumps({"page_id": "a b", "text": "", "formulas": []}) + "\n")
        with pytest.raises(MalformedRecord):
            ingest_pages(p)

    def test_pages_without_formulas_kept(self, fixture_collection):
        plain = next(p for p in fixture_collection.pages if p.page_id == "Plain_History")
        assert plain.formula_ids == []

    def test_text_normalized(self):
        coll = ingest_pages(TEST_DATA / "mini2.jsonl")
        assert coll.pages[0].text_terms == ["alpha", "beta", "words"]


class TestQueries:
    def test_fixture_queries(self):
        queries = ingest_queries(QUERIES_PATH)
        assert [q.query_id for q in queries] == ["q1", "q2", "q3", "q4"]
        assert all(q.keywords and q.formulae for q in queries)

    def test_both_empty_rejected(self, tmp_path):
        p = tmp_path / "q.jsonl"
        p.write_text(json.dumps({"query_id": "q", "keywords": [], "formulas": []}) + "\n")
        with pytest.raises(MalformedRecord):
            ingest_queries(p)

    def test_duplicate_query_id(self, tmp_path):
        p = tmp_path / "q.jsonl"
        rec = {"query_id": "q", "keywords": ["a"], "formulas": []}
        p.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(DuplicateQueryId):
            ingest_queries(p)

    def test_query_id_starting_with_hash_rejected(self, tmp_path):
        # run and qrels lines that start with "#" are comments, so such a
        # query would vanish from every evaluation
        p = tmp_path / "q.jsonl"
        p.write_text("".join(json.dumps({"query_id": qid, "keywords": ["a"]}) + "\n"
                             for qid in ("q1", "#q2")))
        with pytest.raises(MalformedRecord) as info:
            ingest_queries(p)
        assert str(info.value).startswith(f"{p}:2: query_id must not start with '#'")

    def test_keywords_are_normalized(self, tmp_path):
        p = tmp_path / "q.jsonl"
        p.write_text(json.dumps(
            {"query_id": "q", "keywords": ["Pythagorean Theorem"], "formulas": []}) + "\n")
        (q,) = ingest_queries(p)
        assert q.keywords == ["pythagorean", "theorem"]


class TestFilterCorpus:
    def test_keeps_only_eligible(self):
        fs = formulas_from("x + y = z + 1", "x + 1")
        kept = filter_corpus(fs)
        assert [f.id for f in kept] == ["f0"]

    def test_empty(self):
        assert filter_corpus([]) == []

    def test_idempotent(self, fixture_collection):
        once = filter_corpus(fixture_collection.formulas.values())
        assert filter_corpus(once) == once

    def test_order_preserved(self, fixture_collection):
        kept = filter_corpus(fixture_collection.formulas.values())
        ids = [f.id for f in kept]
        all_ids = list(fixture_collection.formulas)
        assert ids == [i for i in all_ids if i in set(ids)]


class TestVocabulary:
    def test_hand_computed_sampling_probs(self):
        fs = formulas_from("a a a a a b b c")
        vocab = build_vocabulary(fs, min_count=2)
        assert vocab.surfaces == ["a", "b"]
        norm = 5 ** 0.75 + 2 ** 0.75
        assert vocab.sampling_probs[0] == pytest.approx(5 ** 0.75 / norm, abs=1e-12)
        assert vocab.sampling_probs[1] == pytest.approx(2 ** 0.75 / norm, abs=1e-12)
        assert vocab.sampling_probs[0] == pytest.approx(0.665, abs=5e-4)

    def test_min_count_one_keeps_everything(self):
        fs = formulas_from("a a a a a b b c")
        vocab = build_vocabulary(fs, min_count=1)
        assert set(vocab.surfaces) == {"a", "b", "c"}

    def test_min_count_too_high(self):
        fs = formulas_from("a a a a a b b c")
        with pytest.raises(EmptyVocabulary):
            build_vocabulary(fs, min_count=10)

    def test_ordering_by_frequency_then_lexicographic(self):
        fs = formulas_from("b b a a c")
        vocab = build_vocabulary(fs)
        assert vocab.surfaces == ["a", "b", "c"]  # a and b tie at 2, lex break

    def test_indices_are_dense_bijection(self, fixture_vocab):
        assert sorted(fixture_vocab.index.values()) == list(range(len(fixture_vocab)))
        assert len(set(fixture_vocab.surfaces)) == len(fixture_vocab)

    def test_sampling_probs_sum_to_one(self, fixture_vocab):
        assert abs(fixture_vocab.sampling_probs.sum() - 1.0) < 1e-9

    def test_sampling_is_seeded(self, fixture_vocab):
        a = fixture_vocab.quantile(np.random.default_rng(3).random(100))
        b = fixture_vocab.quantile(np.random.default_rng(3).random(100))
        assert np.array_equal(a, b)
        assert a.max() < len(fixture_vocab)

    @pytest.mark.parametrize("size,power", [(1, 0.75), (5, 0.75), (114, 0.75), (40, 0.0),
                                            (3000, 0.75), (8, 0.0)])
    def test_quantile_is_the_binary_search(self, size, power):
        # the sliced lookup must give np.searchsorted's answer on every draw,
        # at, just below and just above every step of the CDF included; with
        # power 0 and 8 surfaces every step falls on a slice edge
        from mathemb.corpus import Vocabulary

        rng = np.random.default_rng(size)
        vocab = Vocabulary([f"s{i}" for i in range(size)],
                           [int(c) for c in rng.integers(1, 1000, size)], power)
        cdf = np.cumsum(vocab.sampling_probs)
        draws = np.concatenate((rng.random(20000), cdf[:-1], np.nextafter(cdf, 0),
                                np.nextafter(cdf[:-1], 1), [0.0, np.nextafter(1.0, 0)]))
        want = np.searchsorted(vocab._cumulative, draws, side="right")
        got = vocab.quantile(draws.reshape(-1, 1))
        assert got.shape == (len(draws), 1) and got.dtype == want.dtype
        assert np.array_equal(got[:, 0], want)

    @pytest.mark.parametrize("power", [math.nan, math.inf, 1e308])
    def test_degenerate_sampling_power_rejected(self, power):
        # no finite distribution: every draw would land on index 0
        from mathemb.corpus import Vocabulary

        with pytest.raises(ValueError, match="sample power"):
            Vocabulary(["a", "b", "c", "d"], [5, 3, 2, 1], power)

    def test_fingerprint_changes_with_counts(self):
        v1 = build_vocabulary(formulas_from("a a b"))
        v2 = build_vocabulary(formulas_from("a b b"))
        assert v1.fingerprint() != v2.fingerprint()


class TestPersistence:
    def test_collection_round_trip_bitwise(self, fixture_collection, tmp_path):
        p1 = tmp_path / "store1.txt"
        p2 = tmp_path / "store2.txt"
        save_collection(fixture_collection, p1, meta={"seed": 1})
        reloaded = load_collection(p1)
        save_collection(reloaded, p2, meta={"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_collection_header_checked(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("WRONG v9\n")
        with pytest.raises(MalformedRecord):
            load_collection(p)

    def test_repeated_page_record_rejected_with_line(self, fixture_collection, tmp_path):
        # the store's first page record written again right after itself
        p = tmp_path / "store.txt"
        save_collection(fixture_collection, p)
        lines = p.read_text().splitlines()
        lines.insert(2, lines[1])
        p.write_text("\n".join(lines) + "\n")
        page_id = fixture_collection.pages[0].page_id
        with pytest.raises(DuplicatePageId, match=f"store.txt:3: duplicate page_id '{page_id}'"):
            load_collection(p)

    @pytest.mark.parametrize("field,value,message", [
        ("page_id", "a b", "page_id must be a non-empty string without whitespace, got 'a b'"),
        ("page_id", "", "page_id must be a non-empty string without whitespace, got ''"),
        ("page_id", 7, "page_id must be a non-empty string without whitespace, got 7"),
        ("text_terms", "sine", "text_terms must be a list of strings"),
        ("formula_ids", None, "formula_ids must be a list of strings"),
    ], ids=["page-id-space", "page-id-empty", "page-id-number", "text-terms-string",
            "formula-ids-null"])
    def test_malformed_page_record_rejected_with_line(self, fixture_collection, tmp_path,
                                                      field, value, message):
        # the store's first page record with one field replaced
        p = tmp_path / "store.txt"
        save_collection(fixture_collection, p)
        lines = p.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=f"store.txt:2: {message}$"):
            load_collection(p)

    def test_repeated_formula_record_rejected_with_line(self, fixture_collection, tmp_path):
        # a second record for the store's first formula id, with other surfaces
        p = tmp_path / "store.txt"
        save_collection(fixture_collection, p)
        fid = next(iter(fixture_collection.formulas))
        lines = p.read_text().splitlines()
        lines.append(json.dumps({"id": fid, "kind": "formula", "surfaces": ["z"]}))
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord,
                           match=f"store.txt:{len(lines)}: duplicate formula id '{fid}'"):
            load_collection(p)

    def test_repeated_training_formula_rejected_with_line(self, fixture_train_corpus,
                                                          tmp_path):
        # the training corpus's first formula line written again at its end
        p = tmp_path / "train.txt"
        save_training_corpus(fixture_train_corpus, p)
        lines = p.read_text().splitlines()
        lines.append(lines[1])
        p.write_text("\n".join(lines) + "\n")
        fid = fixture_train_corpus[0].id
        with pytest.raises(MalformedRecord,
                           match=f"train.txt:{len(lines)}: duplicate formula id '{fid}'"):
            load_training_corpus(p)

    @pytest.mark.parametrize("value,shown", [("a b", "'a b'"), ("", "''"), (7, "7")],
                             ids=["space", "empty", "number"])
    @pytest.mark.parametrize("store", ["collection", "training-corpus"])
    def test_malformed_formula_id_rejected_with_line(self, fixture_collection,
                                                     fixture_train_corpus, tmp_path,
                                                     store, value, shown):
        # the first formula record with its id replaced, which a .dv.txt
        # label could not hold; the store names it, not the model
        p = tmp_path / "store.txt"
        if store == "collection":
            save_collection(fixture_collection, p)
            load = load_collection
        else:
            save_training_corpus(fixture_train_corpus, p)
            load = load_training_corpus
        lines = p.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if '"surfaces"' in line)
        record = json.loads(lines[at])
        record["id"] = value
        lines[at] = json.dumps(record)
        p.write_text("\n".join(lines) + "\n")
        message = f"formula id must be a non-empty string without whitespace, got {shown}"
        with pytest.raises(MalformedRecord, match=f"store.txt:{at + 1}: {message}$"):
            load(p)

    def test_training_corpus_round_trip(self, fixture_train_corpus, tmp_path):
        p1 = tmp_path / "t1.txt"
        p2 = tmp_path / "t2.txt"
        save_training_corpus(fixture_train_corpus, p1)
        again = load_training_corpus(p1)
        assert [f.id for f in again] == [f.id for f in fixture_train_corpus]
        assert [f.surfaces for f in again] == [f.surfaces for f in fixture_train_corpus]
        save_training_corpus(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_classes_recomputed_on_load(self, fixture_collection, tmp_path):
        p = tmp_path / "s.txt"
        save_collection(fixture_collection, p)
        reloaded = load_collection(p)
        for fid, f in reloaded.formulas.items():
            orig = fixture_collection.formulas[fid]
            assert [t.cls for t in f.tokens] == [t.cls for t in orig.tokens]

    def test_loaded_tokens_are_tokenize_tokens_for_every_class(self, tmp_path):
        # a store read classifies each distinct surface once and shares its
        # token; the second formula repeats surfaces of the first
        latexes = ["\\begin{matrix} x + 1 = ( \\alpha ) \\frac @ \\end{matrix}",
                   "@ ) ( = 1 + x \\unknown"]
        formulas = formulas_from(*latexes)
        assert {t.cls for f in formulas for t in f.tokens} == set(TokenClass)
        save_collection(Collection([Page("p", "", [], [f.id for f in formulas])],
                                   {f.id: f for f in formulas}), tmp_path / "c.store")
        save_training_corpus(formulas, tmp_path / "t.corpus")
        for loaded in (list(load_collection(tmp_path / "c.store").formulas.values()),
                       load_training_corpus(tmp_path / "t.corpus")):
            assert [f.tokens for f in loaded] == [tokenize(tex) for tex in latexes]


class TestNormalizeText:
    def test_splits_and_lowercases(self):
        assert normalize_text("The F.B.I. counted 3 cases!") == \
            ["the", "f", "b", "i", "counted", "3", "cases"]

    def test_stopwords(self):
        assert normalize_text("the quick fox", stopwords=frozenset({"the"})) == \
            ["quick", "fox"]

    def test_fixture_is_ingestable_end_to_end(self):
        coll = ingest_pages(COLLECTION_PATH)
        assert coll.page_count == 16
        assert coll.formula_count == 24
        lengths = [len(p.text_terms) for p in coll.pages]
        assert len(set(lengths)) == len(lengths)  # tie-free text scores need this
