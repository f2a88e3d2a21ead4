import math

import numpy as np
import pytest

from mathemb.analysis import cosine
from mathemb.corpus import build_vocabulary
from mathemb.cli import main
from mathemb.embeddings import (
    EmbeddingTable, Mode, TrainingConfig, cbow_step, infer_vector, infer_vectors, load_table,
    nce_loss, pvdm_step, save_table, train_formula2vec, train_symbol2vec,
)
from mathemb.errors import (
    DimensionMismatch, EmptyContext, EmptyCorpus, MalformedRecord, UnknownTokensOnly,
)
from mathemb.tokenizer import TokenizedFormula, tokenize

from conftest import make_cluster_corpus
from oracles import central_difference, oracle_infer_vector


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


def small_corpus(n=12):
    return [TokenizedFormula(f"f{i}", tokenize("a + b = c + 1 - d"))
            for i in range(n)]


def trained_pair(seed=5, dim=6, epochs=4, mode=Mode.SYMBOL2VEC, corpus=None):
    corpus = corpus or small_corpus()
    vocab = build_vocabulary(corpus)
    cfg = TrainingConfig(dim=dim, window=3, negatives=3, epochs=epochs,
                         lr_start=0.05, lr_end=0.001, seed=seed, mode=mode)
    trainer = train_symbol2vec if mode is Mode.SYMBOL2VEC else train_formula2vec
    return trainer(corpus, vocab, cfg), vocab


class TestConfig:
    def test_valid(self):
        TrainingConfig(dim=1, window=1, negatives=1, epochs=1, lr_start=0.1, lr_end=0.1)

    @pytest.mark.parametrize("kw", [
        dict(epochs=0), dict(dim=0), dict(window=0), dict(negatives=0),
        dict(lr_start=0.0001, lr_end=0.01), dict(lr_end=0.0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            TrainingConfig(**kw)

    def test_json_round_trip(self):
        cfg = TrainingConfig(dim=12, seed=9, mode=Mode.FORMULA2VEC)
        assert TrainingConfig.from_json_dict(cfg.to_json_dict()) == cfg


class TestNceLoss:
    def test_all_zero_vectors(self):
        z = np.zeros(7)
        assert nce_loss(z, z, [z] * 5) == pytest.approx(6 * math.log(2), abs=1e-12)

    def test_saturated_limit(self):
        h = np.array([40.0, 0.0])
        pos = np.array([1.0, 0.0])
        neg = np.array([-1.0, 0.0])
        assert nce_loss(h, pos, [neg]) < 1e-10

    def test_hand_value(self):
        h = np.array([1.0, 0.0])
        v = np.array([1.0, 0.0])
        expected = -math.log(sigma(1)) - math.log(sigma(-1))
        assert nce_loss(h, v, [v]) == pytest.approx(expected, abs=1e-12)
        assert nce_loss(h, v, [v]) == pytest.approx(1.6265, abs=5e-5)

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, p = rng.normal(size=(2, 5)) * 100
            negs = rng.normal(size=(3, 5)) * 100
            val = nce_loss(h, p, list(negs))
            assert val >= 0.0 and math.isfinite(val)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nce_loss(np.zeros(3), np.zeros(4), [])
        with pytest.raises(DimensionMismatch):
            nce_loss(np.zeros(3), np.zeros(3), [np.zeros(2)])


class TestSteps:
    def make_table(self, seed=0, v=6, dim=4):
        rng = np.random.default_rng(seed)
        corpus = small_corpus(2)
        vocab = build_vocabulary(corpus)
        cfg = TrainingConfig(dim=dim, window=2, negatives=2, epochs=1)
        return EmbeddingTable(
            config=cfg, vocab=vocab,
            input_vectors=rng.normal(0, 0.3, (len(vocab), dim)),
            context_vectors=rng.normal(0, 0.3, (len(vocab), dim)),
        )

    def test_gradient_on_h_closed_form(self):
        # dL/dh = (sigma(u_pos.h) - 1) u_pos + sum sigma(u_n.h) u_n,
        # and each of the two context rows receives half of it
        table = self.make_table()
        w = table.input_vectors.copy()
        c = table.context_vectors.copy()
        ctx, tgt, negs = [0, 1], 2, [3, 4]
        lr = 0.5
        cbow_step(table, ctx, tgt, negs, lr)
        h = w[ctx].mean(axis=0)
        grad_h = (sigma(c[tgt] @ h) - 1.0) * c[tgt]
        for n in negs:
            grad_h += sigma(c[n] @ h) * c[n]
        for i in ctx:
            np.testing.assert_allclose(
                (w[i] - table.input_vectors[i]) / lr, grad_h / 2, atol=1e-12)

    def test_lr_zero_is_noop(self):
        table = self.make_table()
        w = table.input_vectors.copy()
        c = table.context_vectors.copy()
        loss = cbow_step(table, [0, 1], 2, [3], 0.0)
        assert loss > 0
        assert np.array_equal(table.input_vectors, w)
        assert np.array_equal(table.context_vectors, c)

    def test_empty_context_raises(self):
        with pytest.raises(EmptyContext):
            cbow_step(self.make_table(), [], 2, [3], 0.1)

    def test_target_among_negatives_rejected(self):
        with pytest.raises(ValueError):
            cbow_step(self.make_table(), [0], 2, [2], 0.1)

    def test_returns_pre_update_loss(self):
        table = self.make_table()
        w = table.input_vectors.copy()
        c = table.context_vectors.copy()
        h = w[[0, 1]].mean(axis=0)
        expected = nce_loss(h, c[2], [c[3], c[4]])
        assert cbow_step(table, [0, 1], 2, [3, 4], 0.05) == pytest.approx(expected, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        # smaller version of the acceptance criterion, cbow and pvdm mixed
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(20):
            dim = int(rng.integers(2, 8))
            v = 7
            corpus = small_corpus(3)
            vocab = build_vocabulary(corpus)
            cfg = TrainingConfig(dim=dim, window=2, negatives=3, epochs=1,
                                 mode=Mode.FORMULA2VEC if trial % 2 else Mode.SYMBOL2VEC)
            table = EmbeddingTable(
                config=cfg, vocab=vocab,
                input_vectors=rng.normal(0, 0.5, (v, dim)),
                context_vectors=rng.normal(0, 0.5, (v, dim)),
                formula_vectors=rng.normal(0, 0.5, (3, dim)),
                formula_ids=["d0", "d1", "d2"],
            )
            ctx = list(rng.integers(0, v, int(rng.integers(1, 4))))
            tgt = int(rng.integers(0, v))
            negs = [int(x) for x in rng.integers(0, v, 3) if int(x) != tgt]
            doc = int(rng.integers(0, 3)) if trial % 2 else None

            w0 = table.input_vectors.copy()
            c0 = table.context_vectors.copy()
            d0 = table.formula_vectors.copy()
            lr = 0.31
            if doc is None:
                cbow_step(table, ctx, tgt, negs, lr)
            else:
                pvdm_step(table, doc, ctx, tgt, negs, lr)

            snap = (w0, c0, d0)

            def loss_at():
                w, c, d = snap
                members = list(ctx)
                h = w[members].sum(axis=0) if members else np.zeros(dim)
                k = len(members)
                if doc is not None:
                    h = h + d[doc]
                    k += 1
                h = h / k
                return nce_loss(h, c[tgt], [c[n] for n in negs])

            for before, after in ((w0, table.input_vectors),
                                  (c0, table.context_vectors),
                                  (d0, table.formula_vectors)):
                implied = (before - after) / lr
                for i, j in np.argwhere(np.abs(implied) > 1e-12):
                    fd = central_difference(loss_at, before, i, j)
                    rel = abs(fd - implied[i, j]) / max(abs(fd), abs(implied[i, j]), 1e-8)
                    worst = max(worst, rel)
        assert worst < 1e-4


class TestTraining:
    def test_empty_corpus(self):
        vocab = build_vocabulary(small_corpus(1))
        cfg = TrainingConfig(dim=4)
        with pytest.raises(EmptyCorpus):
            train_symbol2vec([], vocab, cfg)

    def test_mode_enforced(self):
        corpus = small_corpus(2)
        vocab = build_vocabulary(corpus)
        with pytest.raises(ValueError):
            train_symbol2vec(corpus, vocab, TrainingConfig(dim=4, mode=Mode.FORMULA2VEC))
        with pytest.raises(ValueError):
            train_formula2vec(corpus, vocab, TrainingConfig(dim=4, mode=Mode.SYMBOL2VEC))

    def test_deterministic_bitwise(self):
        t1, _ = trained_pair(seed=11)
        t2, _ = trained_pair(seed=11)
        assert np.array_equal(t1.input_vectors, t2.input_vectors)
        assert np.array_equal(t1.context_vectors, t2.context_vectors)
        assert t1.epoch_losses == t2.epoch_losses

    def test_seed_changes_result(self):
        t1, _ = trained_pair(seed=11)
        t2, _ = trained_pair(seed=12)
        assert not np.array_equal(t1.input_vectors, t2.input_vectors)

    def test_no_zero_rows_and_finite(self, trained_symbol_table, trained_formula_table):
        for table in (trained_symbol_table, trained_formula_table):
            assert np.isfinite(table.input_vectors).all()
            assert np.isfinite(table.context_vectors).all()
            norms = np.linalg.norm(table.input_vectors, axis=1)
            assert (norms > 0).all()
        assert np.isfinite(trained_formula_table.formula_vectors).all()
        dnorm = np.linalg.norm(trained_formula_table.formula_vectors, axis=1)
        assert (dnorm > 0).all()

    def test_loss_trend_first_epochs(self, fixture_train_corpus, fixture_vocab):
        good = 0
        for seed in range(10):
            cfg = TrainingConfig(dim=24, window=5, negatives=5, epochs=5,
                                 lr_start=0.05, lr_end=0.001, seed=seed,
                                 mode=Mode.SYMBOL2VEC)
            t = train_symbol2vec(fixture_train_corpus, fixture_vocab, cfg)
            diffs = [t.epoch_losses[i + 1] - t.epoch_losses[i] for i in range(4)]
            good += all(d <= 1e-12 for d in diffs)
        assert good >= 9

    def test_cluster_separation(self):
        # desk-scale stand-in for neighbor tables: co-trained symbols beat
        # cross-cluster ones in >= 9/10 seeds
        corpus = make_cluster_corpus()
        vocab = build_vocabulary(corpus)
        good = 0
        for seed in range(10):
            cfg = TrainingConfig(dim=32, window=5, negatives=5, epochs=15,
                                 lr_start=0.05, lr_end=0.0001, seed=seed,
                                 mode=Mode.SYMBOL2VEC)
            t = train_symbol2vec(corpus, vocab, cfg)
            same = cosine(t.vector("\\sin"), t.vector("\\cos"))
            cross = cosine(t.vector("\\sin"), t.vector("\\alpha"))
            good += same > cross
        assert good >= 9

    def test_formula_vectors_shape(self, trained_formula_table, fixture_train_corpus):
        assert trained_formula_table.formula_vectors.shape[0] == len(fixture_train_corpus)
        assert trained_formula_table.formula_ids == [f.id for f in fixture_train_corpus]

    def test_short_formulas_skipped_with_count(self):
        corpus = small_corpus(3) + [TokenizedFormula("tiny", tokenize("x"))]
        vocab = build_vocabulary(corpus)
        cfg = TrainingConfig(dim=4, epochs=1, mode=Mode.FORMULA2VEC)
        t = train_formula2vec(corpus, vocab, cfg)
        assert t.skipped_short == 1
        assert t.formula_vectors.shape[0] == 4  # row exists even when skipped

    def test_identical_formulas_align(self):
        corpus = [TokenizedFormula("dup1", tokenize("\\sin x + \\cos y = 1")),
                  TokenizedFormula("dup2", tokenize("\\sin x + \\cos y = 1"))]
        corpus += [TokenizedFormula(f"r{i}", tokenize(s)) for i, s in enumerate([
            "\\alpha + \\beta = \\gamma - \\delta",
            "\\int f ( u ) d u = \\pi + 1",
            "a d - b c = z + 2",
            "p ^ 2 + q ^ 2 = r ^ 2",
        ])]
        vocab = build_vocabulary(corpus)
        wins = 0
        for seed in range(10):
            cfg = TrainingConfig(dim=24, window=5, negatives=5, epochs=60,
                                 lr_start=0.1, lr_end=0.001, seed=seed,
                                 mode=Mode.FORMULA2VEC)
            t = train_formula2vec(corpus, vocab, cfg)
            dup = cosine(t.formula_vector("dup1"), t.formula_vector("dup2"))
            pairwise = []
            ids = [f.id for f in corpus]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    pairwise.append(cosine(t.formula_vector(ids[i]),
                                           t.formula_vector(ids[j])))
            wins += dup > float(np.median(pairwise))
        assert wins >= 6  # majority over seeds

    def test_parallel_mode_smoke(self, fixture_train_corpus, fixture_vocab):
        cfg = TrainingConfig(dim=16, epochs=3, seed=1, mode=Mode.SYMBOL2VEC)
        t = train_symbol2vec(fixture_train_corpus, fixture_vocab, cfg, workers=3)
        assert np.isfinite(t.input_vectors).all()
        assert (np.linalg.norm(t.input_vectors, axis=1) > 0).all()


class TestInference:
    def test_deterministic(self, trained_formula_table, fixture_train_corpus):
        f = fixture_train_corpus[0]
        a = infer_vector(f.tokens, trained_formula_table, steps=10, seed=3)
        b = infer_vector(f.tokens, trained_formula_table, steps=10, seed=3)
        assert np.array_equal(a, b)

    def test_steps_zero_returns_seeded_init(self, trained_formula_table):
        toks = tokenize("a + b = c")
        v = infer_vector(toks, trained_formula_table, steps=0, seed=99)
        dim = trained_formula_table.config.dim
        rng = np.random.default_rng(99)
        np.testing.assert_array_equal(v, rng.uniform(-0.5 / dim, 0.5 / dim, dim))
        batch = infer_vectors([tokenize("x + 1"), toks], trained_formula_table, [5, 99], steps=0)
        np.testing.assert_array_equal(batch[1], v)

    def test_matches_single_position_oracle(self, trained_formula_table, fixture_collection):
        formulae = list(fixture_collection.formulas.values())[:8]
        got = infer_vectors([f.tokens for f in formulae], trained_formula_table,
                            range(8), steps=3, lr=0.05)
        for seed, (f, vec) in enumerate(zip(formulae, got)):
            want = oracle_infer_vector(f.surfaces, trained_formula_table, 3, 0.05, seed)
            np.testing.assert_allclose(vec, want, rtol=0, atol=1e-12)

    def test_batch_equals_lone_inference_in_any_order(self, trained_formula_table,
                                                      fixture_collection):
        formulae = list(fixture_collection.formulas.values())
        seeds = [100 + i for i in range(len(formulae))]
        alone = [infer_vector(f.tokens, trained_formula_table, steps=4, seed=s)
                 for f, s in zip(formulae, seeds)]
        rng = np.random.default_rng(0)
        for _ in range(3):
            # shuffled, a random subset, and every formula repeated past one block
            pick = list(rng.permutation(len(formulae)))[:int(rng.integers(2, len(formulae)))]
            pick = pick * (1 + 70 // len(pick))
            got = infer_vectors([formulae[i].tokens for i in pick], trained_formula_table,
                                [seeds[i] for i in pick], steps=4)
            for i, vec in zip(pick, got):
                np.testing.assert_allclose(vec, alone[i], rtol=0, atol=1e-12)

    def test_duplicates_in_a_batch_are_bit_identical(self, trained_formula_table):
        toks = [tokenize("\\sin x + \\cos y = 1"), tokenize("a + b = c"),
                tokenize("\\sin x + \\cos y = 1")] * 3
        got = infer_vectors(toks, trained_formula_table, [11, 12, 11] * 3, steps=5)
        for i, vec in enumerate(got):
            assert np.array_equal(vec, got[1 if i % 3 == 1 else 0])

    def test_all_oov_formula_in_a_batch_is_none(self, trained_formula_table):
        got = infer_vectors([tokenize("\\nosuch"), tokenize("a + b")],
                            trained_formula_table, [1, 2], steps=2)
        assert got[0] is None and np.isfinite(got[1]).all()

    def test_oov_tokens_skipped(self, trained_formula_table):
        toks = tokenize("a + b \\notinvocab = c")
        v = infer_vector(toks, trained_formula_table, steps=5, seed=1)
        assert np.isfinite(v).all()

    def test_all_oov_raises(self, trained_formula_table):
        with pytest.raises(UnknownTokensOnly):
            infer_vector(tokenize("\\nosuch \\tokens"), trained_formula_table, steps=5)

    def test_requires_formula_mode(self, trained_symbol_table):
        with pytest.raises(ValueError):
            infer_vector(tokenize("a + b"), trained_symbol_table)

    def test_verbatim_inference_beats_random_formula(self, trained_formula_table,
                                                     fixture_train_corpus):
        target = fixture_train_corpus[0]
        other = fixture_train_corpus[9]
        margins = []
        for seed in range(10):
            v = infer_vector(target.tokens, trained_formula_table, steps=50,
                             lr=0.1, seed=seed)
            own = cosine(v, trained_formula_table.formula_vector(target.id))
            rand = cosine(v, trained_formula_table.formula_vector(other.id))
            margins.append(own - rand)
        assert float(np.median(margins)) > 0


class TestPersistence:
    def test_round_trip(self, trained_formula_table, tmp_path):
        prefix = tmp_path / "model"
        save_table(trained_formula_table, prefix)
        loaded = load_table(prefix)
        assert loaded.config == trained_formula_table.config
        assert loaded.vocab.surfaces == trained_formula_table.vocab.surfaces
        assert loaded.vocab_fingerprint == trained_formula_table.vocab_fingerprint
        np.testing.assert_allclose(loaded.input_vectors,
                                   trained_formula_table.input_vectors, atol=5e-7)
        np.testing.assert_allclose(loaded.formula_vectors,
                                   trained_formula_table.formula_vectors, atol=5e-7)
        assert loaded.formula_ids == trained_formula_table.formula_ids

    def test_word2vec_text_layout(self, trained_symbol_table, tmp_path):
        prefix = tmp_path / "model"
        save_table(trained_symbol_table, prefix)
        lines = (tmp_path / "model.wv.txt").read_text().splitlines()
        assert lines[0].startswith("#")
        v, dim = lines[1].split()
        assert int(v) == len(trained_symbol_table.vocab)
        assert int(dim) == trained_symbol_table.config.dim
        first = lines[2].split(" ")
        assert first[0] == trained_symbol_table.vocab.surfaces[0]
        assert len(first) == 1 + int(dim)
        float(first[1])  # 6-decimal fixed floats

    def test_docvec_header(self, trained_formula_table, tmp_path):
        prefix = tmp_path / "model"
        save_table(trained_formula_table, prefix)
        first = (tmp_path / "model.dv.txt").read_text().splitlines()[0]
        assert first == "MATHEMB-DOCVEC v1"

    def test_save_is_deterministic(self, trained_symbol_table, tmp_path):
        save_table(trained_symbol_table, tmp_path / "a")
        save_table(trained_symbol_table, tmp_path / "b")
        for ext in (".wv.txt", ".ctx.txt", ".meta.txt"):
            assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()

    @pytest.mark.parametrize("ext,line,edit", [
        (".wv.txt", 3, lambda row: row.rsplit(" ", 1)[0]),
        (".ctx.txt", 4, lambda row: row.rsplit(" ", 1)[0] + " nan"),
        (".dv.txt", 5, lambda row: row + " 0.5"),
    ], ids=["wv-entry-short", "ctx-nan-entry", "dv-entry-too-many"])
    def test_corrupt_row_rejected_with_line(self, trained_formula_table, tmp_path, capsys,
                                            ext, line, edit):
        prefix = tmp_path / "model"
        save_table(trained_formula_table, prefix)
        path = tmp_path / f"model{ext}"
        lines = path.read_text().splitlines()
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=f"model{ext}:{line}:"):
            load_table(prefix)
        assert main(["neighbors", "--model", str(prefix), "--symbol", "a"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_docvec_dim_must_match_word_vectors(self, trained_formula_table, tmp_path):
        prefix = tmp_path / "model"
        save_table(trained_formula_table, prefix)
        path = tmp_path / "model.dv.txt"
        lines = path.read_text().splitlines()
        body = [i for i, ln in enumerate(lines) if i > 0 and not ln.startswith("#")]
        n, dim = lines[body[0]].split()
        lines[body[0]] = f"{n} {int(dim) - 1}"
        for i in body[1:]:
            lines[i] = lines[i].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match="dim"):
            load_table(prefix)
        assert main(["neighbors", "--model", str(prefix), "--symbol", "a"]) == 1

    def test_tampered_meta_rejected(self, trained_symbol_table, tmp_path):
        prefix = tmp_path / "model"
        save_table(trained_symbol_table, prefix)
        meta = tmp_path / "model.meta.txt"
        text = meta.read_text().replace('"vocab_fingerprint":"', '"vocab_fingerprint":"00')
        meta.write_text(text)
        with pytest.raises(MalformedRecord):
            load_table(prefix)
