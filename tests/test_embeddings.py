import math

import numpy as np
import pytest

from mathemb.analysis import cosine
from mathemb.corpus import build_vocabulary
from mathemb.cli import main
from mathemb import embeddings
from mathemb.embeddings import (
    _BLOCK, _INFER_BLOCK, EmbeddingTable, Mode, TrainingConfig, _gradient, _loss, _negatives,
    _sgd, _tables, cbow_step, infer_vector, infer_vectors, load_table, nce_loss, pvdm_step,
    save_table, train_formula2vec, train_symbol2vec,
)
from mathemb.errors import (
    DimensionMismatch, EmptyContext, EmptyCorpus, MalformedRecord, UnknownTokensOnly,
)
from mathemb.tokenizer import SymbolToken, TokenClass, TokenizedFormula, tokenize

from conftest import make_cluster_corpus
from oracles import (
    central_difference, oracle_infer_block, oracle_infer_vector, oracle_negatives, oracle_step,
    oracle_train,
)


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

    @pytest.mark.parametrize("outside", [-1, "past-the-end"])
    @pytest.mark.parametrize("kind", ["context", "target", "negative", "formula row"])
    def test_index_outside_the_rows_rejected_before_any_update(self, kind, outside):
        # the row past the last word row is the zero pad slot of the stacked
        # (input | pad | formula) rows; no index may reach it, or wrap around
        table = self.make_table()
        table.formula_vectors = np.ones((3, 4))
        n = 3 if kind == "formula row" else len(table.vocab)
        bad = n if outside == "past-the-end" else outside
        args = {"formula row": 1, "context": [0, 1], "target": 2, "negative": [3]}
        args[kind] = [bad] if kind in ("context", "negative") else bad
        before = [a.copy() for a in (table.input_vectors, table.context_vectors,
                                     table.formula_vectors)]
        with pytest.raises(ValueError, match=f"{kind} index {bad} is outside"):
            pvdm_step(table, args["formula row"], args["context"], args["target"],
                      args["negative"], 0.1)
        if kind != "formula row":
            with pytest.raises(ValueError, match=f"{kind} index {bad} is outside"):
                cbow_step(table, args["context"], args["target"], args["negative"], 0.1)
        for array, old in zip((table.input_vectors, table.context_vectors,
                               table.formula_vectors), before):
            assert np.array_equal(array, old)

    def test_pvdm_step_without_formula_rows_rejected(self):
        with pytest.raises(ValueError, match=r"formula row index 0 is outside \[0, 0\)"):
            pvdm_step(self.make_table(), 0, [0], 2, [3], 0.1)

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


class TestKernel:
    """_sgd against oracle_step, the one-position update."""

    def rows(self, seed, v, dim, n_docs=3):
        rng = np.random.default_rng(seed)
        return tuple(rng.normal(0, 0.5, (n, dim)) for n in (v, v, n_docs))

    @pytest.mark.parametrize("ctx,doc", [
        ([0, 1, 1, 3], None), ([4], None), ([2, 2, 6], 1), ([], 0),
    ], ids=["cbow-duplicate-context", "cbow-one", "pvdm-duplicate-context", "pvdm-empty"])
    def test_block_of_one_matches_oracle_step(self, ctx, doc):
        vocab = build_vocabulary(small_corpus(2))
        words, outputs, docs = self.rows(3, len(vocab), 5)
        mode = Mode.SYMBOL2VEC if doc is None else Mode.FORMULA2VEC
        table = EmbeddingTable(
            config=TrainingConfig(dim=5, mode=mode), vocab=vocab, input_vectors=words.copy(), context_vectors=outputs.copy(),
            formula_vectors=docs.copy(), formula_ids=["d0", "d1", "d2"])
        tgt, negs, lr = 5, [7, 0, 7], 0.3
        want = oracle_step(words, outputs, docs, doc, ctx, tgt, negs, lr)
        if doc is None:
            got = cbow_step(table, ctx, tgt, negs, lr)
        else:
            got = pvdm_step(table, doc, ctx, tgt, negs, lr)
        assert got == pytest.approx(want, abs=1e-12)
        for after, expected in ((table.input_vectors, words), (table.context_vectors, outputs),
                                (table.formula_vectors, docs)):
            np.testing.assert_allclose(after, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_docs", [False, True], ids=["cbow", "pvdm"])
    def test_block_is_sum_of_oracle_steps_from_the_same_rows(self, with_docs):
        # m positions sharing rows: the kernel's one update equals the sum of
        # the m one-position updates, each taken from the starting rows
        rng = np.random.default_rng(17)
        v, dim, m, k = 8, 5, 12, 3
        pad = v
        words0, outputs0, docs0 = self.rows(4, v + 1, dim)
        words0[pad] = outputs0[pad] = 0.0
        ctx = rng.integers(0, v, (m, 4))
        ctx[rng.random((m, 4)) < 0.4] = pad
        ctx[:, 0] = rng.integers(0, v, m)        # at least one context token
        targets = rng.integers(0, v, m)
        negatives = rng.integers(0, v, (m, k))
        negatives[negatives == targets[:, None]] = pad
        negatives[0, 1] = pad                    # a dropped negative
        doc_rows = rng.integers(0, 3, m)
        lr = rng.uniform(0.1, 0.5, m)

        deltas = [np.zeros_like(a) for a in (words0, outputs0, docs0)]
        want_loss = []
        for p in range(m):
            w, o, d = words0.copy(), outputs0.copy(), docs0.copy()
            want_loss.append(oracle_step(
                w, o, d, doc_rows[p] if with_docs else None, ctx[p][ctx[p] != pad],
                targets[p], negatives[p][negatives[p] != pad], lr[p]))
            for total, after, before in zip(deltas, (w, o, d), (words0, outputs0, docs0)):
                total += after - before

        # the formula rows follow the pad row, as training lays them out, and
        # join the context as one more member in formula mode
        stacked, outputs = np.vstack((words0, docs0)), outputs0.copy()
        if with_docs:
            ctx = np.hstack((ctx, pad + 1 + doc_rows[:, None]))
        n_ctx, members, _, rows, live = _tables(ctx, targets, negatives, pad)
        dots = _sgd(stacked, outputs, ctx, n_ctx, members, rows, live, lr)
        words, docs = stacked[:pad + 1], stacked[pad + 1:]
        loss = _loss(dots, live)
        np.testing.assert_allclose(loss, want_loss, rtol=0, atol=1e-12)
        for after, before, delta in zip((words, outputs, docs), (words0, outputs0, docs0), deltas):
            np.testing.assert_allclose(after, before + delta, rtol=0, atol=1e-12)
        assert not words[pad].any() and not outputs[pad].any()
        if not with_docs:
            assert np.array_equal(docs, docs0)

    @pytest.mark.parametrize("with_docs", [False, True], ids=["cbow", "pvdm"])
    def test_gradient_core_matches_oracle_step(self, with_docs):
        # each position's core output, applied as oracle_step applies its
        # update, gives oracle_step's rows
        rng = np.random.default_rng(23)
        v, dim, m = 9, 6, 5
        pad = v
        words0, outputs0, docs0 = self.rows(6, v + 1, dim, n_docs=m)
        words0[pad] = outputs0[pad] = 0.0
        ctx = [[0, 3, 3], [5], [], [1, 2, 4, 8], [7, 7]]
        if not with_docs:
            ctx[2] = [6]
        rows = rng.integers(0, v, (m, 4))
        rows[2, 3] = pad                         # a dropped negative
        lr = rng.uniform(0.1, 0.5, m)
        n_members = np.array([len(c) + with_docs for c in ctx])
        h = np.array([words0[c].sum(axis=0) + (docs0[p] if with_docs else 0.0)
                      for p, c in enumerate(ctx)]) / n_members[:, None]
        dots, step, member_step = _gradient(h, outputs0[rows], rows != pad, lr, n_members)
        for p in range(m):
            w, o, d = words0.copy(), outputs0.copy(), docs0.copy()
            live = rows[p] != pad
            oracle_step(w, o, d, p if with_docs else None, ctx[p], rows[p, 0],
                        rows[p, 1:][live[1:]], lr[p])
            np.testing.assert_allclose(dots[p], outputs0[rows[p]] @ h[p], rtol=0, atol=1e-12)
            assert not step[p, ~live].any()
            got_o = outputs0.copy()
            np.add.at(got_o, rows[p, live], step[p, live, None] * h[p])
            got_w = words0.copy()
            np.add.at(got_w, ctx[p], np.broadcast_to(member_step[p], (len(ctx[p]), dim)))
            np.testing.assert_allclose(got_o, o, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_w, w, rtol=0, atol=1e-12)
            if with_docs:
                np.testing.assert_allclose(docs0[p] + member_step[p], d[p], rtol=0, atol=1e-12)


class TestNegatives:
    def test_bulk_draw_matches_oracle_and_avoids_targets(self):
        vocab = build_vocabulary(small_corpus(2))
        pad = len(vocab)
        # "+" is the most frequent surface, so its rows collide most often
        targets = np.array([vocab.index["+"]] * 40 + list(range(len(vocab))) * 5)
        got = _negatives(vocab, np.random.default_rng(3), targets, 5, pad)
        assert not (got == targets[:, None]).any()
        want = oracle_negatives(vocab, np.random.default_rng(3), list(targets), 5)
        assert [[int(d) for d in row if d != pad] for row in got] == want
        assert np.array_equal(got, _negatives(vocab, np.random.default_rng(3), targets, 5, pad))
        assert not np.array_equal(got, _negatives(vocab, np.random.default_rng(4), targets, 5,
                                                  pad))

    def test_one_surface_vocabulary_drops_every_negative(self):
        vocab = build_vocabulary([TokenizedFormula("f", tokenize("x x x"))])
        got = _negatives(vocab, np.random.default_rng(0), np.zeros(6, dtype=np.intp), 3, pad=1)
        assert got.shape == (6, 3) and (got == 1).all()

    def test_training_with_every_negative_dropped(self):
        corpus = [TokenizedFormula(f"f{i}", tokenize("x x x x")) for i in range(3)]
        cfg = TrainingConfig(dim=4, window=2, negatives=2, epochs=2, mode=Mode.SYMBOL2VEC)
        table = train_symbol2vec(corpus, build_vocabulary(corpus), cfg)
        assert np.isfinite(table.input_vectors).all() and np.isfinite(table.epoch_losses).all()


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

    ORACLE_CASES = pytest.mark.parametrize("corpus,seed", [
        ("fixture", 1), ("fixture", 2), ("fixture", 3), ("ragged", 4), ("one-surface", 5),
        ("wide", 6),
    ])
    MODES = pytest.mark.parametrize("mode", [Mode.SYMBOL2VEC, Mode.FORMULA2VEC],
                                    ids=["s2v", "f2v"])

    @staticmethod
    def wide_corpus(size):
        # `size` one-token formulae, which only fill the vocabulary, then 40
        # trainable formulae of 10 tokens drawn from all of them: the same
        # 400 positions at any vocabulary size
        tok = [SymbolToken(f"s{i}", TokenClass.VARIABLE) for i in range(size)]
        rng = np.random.default_rng(size)
        return ([TokenizedFormula(f"v{i}", [t]) for i, t in enumerate(tok)]
                + [TokenizedFormula(f"f{i}", [tok[j] for j in rng.integers(0, size, 10)])
                   for i in range(40)])

    def against_oracle(self, fixture_train_corpus, corpus, seed, mode, dense):
        formulas = {
            "fixture": lambda: fixture_train_corpus,
            # 39 positions: the last block is short
            "ragged": lambda: small_corpus(4) + [TokenizedFormula("r", tokenize("x + y"))],
            # one surface, so every negative equals its target and is dropped
            "one-surface": lambda: [TokenizedFormula(f"f{i}", tokenize("x x x x"))
                                    for i in range(3)],
            # 20,000 surfaces, far more than any block uses
            "wide": lambda: self.wide_corpus(20_000),
        }[corpus]()
        if corpus == "ragged":
            assert sum(len(f.tokens) for f in formulas) % _BLOCK
        vocab = build_vocabulary(formulas)
        cfg = TrainingConfig(dim=16, window=4, negatives=4, epochs=3, lr_start=0.1,
                             lr_end=0.001, seed=seed, mode=mode)
        trainer = train_symbol2vec if mode is Mode.SYMBOL2VEC else train_formula2vec
        return trainer(formulas, vocab, cfg), oracle_train(formulas, vocab, cfg,
                                                           mode is Mode.FORMULA2VEC, dense)

    @MODES
    @ORACLE_CASES
    def test_matches_parent_block_loop_bitwise(self, fixture_train_corpus, corpus, seed, mode):
        # oracle_train rebuilds every block's tables, distinct rows and loss
        # inside the block loop; the epoch's tables, sliced per block, and
        # one loss call give the same bits
        got, (words, outputs, docs, losses) = self.against_oracle(
            fixture_train_corpus, corpus, seed, mode, dense=True)
        assert np.array_equal(got.input_vectors, words)
        assert np.array_equal(got.context_vectors, outputs)
        assert (got.formula_vectors is None and docs is None
                or np.array_equal(got.formula_vectors, docs))
        assert got.epoch_losses == losses

    @MODES
    @ORACLE_CASES
    def test_matches_add_at_block_loop_within_rounding(self, fixture_train_corpus, corpus, seed,
                                                        mode):
        # np.add.at adds a block's updates row by row; the block products sum
        # the same terms in another order, so rows agree to rounding
        got, (words, outputs, docs, losses) = self.against_oracle(
            fixture_train_corpus, corpus, seed, mode, dense=False)
        np.testing.assert_allclose(got.input_vectors, words, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.context_vectors, outputs, rtol=0, atol=1e-12)
        if docs is None:
            assert got.formula_vectors is None
        else:
            np.testing.assert_allclose(got.formula_vectors, docs, rtol=0, atol=1e-12)
        assert got.epoch_losses == pytest.approx(losses, rel=1e-12, abs=0)

    def test_block_memory_does_not_grow_with_the_vocabulary(self):
        # a block's coefficient matrices have a column per row the block
        # uses, never one per vocabulary row: one block's tracemalloc peak at
        # 20,000 surfaces stays near its peak at 200, far below the one
        # (_BLOCK x V) float64 matrix a vocabulary-wide product would need
        import tracemalloc

        dim, window, k = 50, 5, 5

        def peak(size):
            corpus = self.wide_corpus(size)
            vocab = build_vocabulary(corpus)
            seqs = [embeddings._encode(f.tokens, vocab) for f in corpus[-40:]]
            flat, starts = embeddings._lay_out(seqs, window, size)
            centers = (starts[:, None] + np.arange(10)).T.ravel()
            rng = np.random.default_rng(0)
            ctx = embeddings._windows(flat, centers, rng.integers(1, window + 1, 400), window,
                                      size)
            # block 3 holds the second position of formulae 8 to 23, whose rows
            # follow the word table's pad row
            ctx = np.hstack((ctx, size + 1 + np.arange(400)[:, None] % 40))
            n_ctx, members, bounds, rows, live = _tables(
                ctx, flat[centers], rng.integers(0, size, (400, k)), size, _BLOCK)
            words, outputs = rng.normal(size=(2, size + 1, dim))
            words = np.vstack((words, rng.normal(size=(40, dim))))
            b = slice(bounds[3], bounds[4])
            tracemalloc.start()
            try:
                _sgd(words, outputs, ctx[b], n_ctx[b], members.block(3), rows.block(3), live[b],
                     0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200), peak(20_000)
        assert abs(large - small) < 0.05 * _BLOCK * 20_000 * 8

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
            pick = pick * (1 + (_INFER_BLOCK + 6) // len(pick))
            got = infer_vectors([formulae[i].tokens for i in pick], trained_formula_table,
                                [seeds[i] for i in pick], steps=4)
            for i, vec in zip(pick, got):
                assert np.array_equal(vec, alone[i])

    def test_duplicates_in_a_batch_are_bit_identical(self, trained_formula_table):
        toks = [tokenize("\\sin x + \\cos y = 1"), tokenize("a + b = c"),
                tokenize("\\sin x + \\cos y = 1")] * 3
        got = infer_vectors(toks, trained_formula_table, [11, 12, 11] * 3, steps=5)
        for i, vec in enumerate(got):
            assert np.array_equal(vec, got[1 if i % 3 == 1 else 0])

    @pytest.mark.parametrize("steps", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, _INFER_BLOCK - 1, _INFER_BLOCK,
                                   _INFER_BLOCK + 1, 2 * _INFER_BLOCK + 2])
    def test_matches_parent_lockstep_loop_bitwise(self, trained_formula_table,
                                                 fixture_collection, monkeypatch, n, steps):
        # oracle_infer_block is the loop before the frozen quantities left
        # it; the same blocks through it must give the same bits.  Sizes
        # from 1 to 130 fill part of one block, the rest sit at its edges.
        formulae = list(fixture_collection.formulas.values())
        toks = [formulae[i % len(formulae)].tokens for i in range(n)]
        assert len({len(t) for t in toks}) > 1 or n == 1
        seeds = [1000 + i for i in range(n)]
        got = infer_vectors(toks, trained_formula_table, seeds, steps=steps, lr=0.05)
        monkeypatch.setattr(embeddings, "_infer_block", oracle_infer_block)
        want = infer_vectors(toks, trained_formula_table, seeds, steps=steps, lr=0.05)
        assert len(got) == n
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 50])
    def test_window_sums_add_as_the_parent_step_did(self, dim):
        # each (position, width) window's sum is the one the parent's step
        # took with words[ctx].sum(axis=1), ten slots in _windows' order, pad
        # slots included; at dim 1 numpy adds those ten slots pairwise
        rng = np.random.default_rng(dim)
        pad, window = 30, 5
        words = np.vstack((rng.normal(size=(pad, dim)), np.zeros((1, dim))))
        seqs = [rng.integers(0, pad, size) for size in (1, 4, 9, 13)]
        # a width reaching past both ends of the sequence shares the narrower
        # width's row, and every row serves some (position, width)
        row_of, n_ctx, sums = embeddings._window_sums(words, seqs, window, pad)
        offsets = [*range(-window, 0), *range(1, window + 1)]
        q = 0
        for seq in seqs:
            for p in range(len(seq)):
                windows = {}
                for width in range(1, window + 1):
                    slots = [seq[p + o] if abs(o) <= width and 0 <= p + o < len(seq) else pad
                             for o in offsets]
                    row = row_of[q, width - 1]
                    assert n_ctx[row] == sum(slot != pad for slot in slots)
                    assert np.array_equal(sums[row], words[np.array([slots])].sum(axis=1)[0])
                    windows.setdefault(tuple(slots), set()).add(row)
                assert all(len(rows) == 1 for rows in windows.values())
                assert len(set(row_of[q])) == len(windows)
                q += 1
        assert q == len(row_of) and set(row_of.ravel()) == set(range(len(sums)))

    def test_one_block_runs_steps_times_its_longest_formula(self, trained_formula_table,
                                                           fixture_collection, monkeypatch):
        # _INFER_BLOCK formulae of mixed length run in one lockstep block:
        # one _gradient call per step of the longest
        formulae = list(fixture_collection.formulas.values())
        toks = [formulae[i % len(formulae)].tokens for i in range(_INFER_BLOCK)]
        lens = {len(embeddings._encode(t, trained_formula_table.vocab)) for t in toks}
        assert len(lens) > 1
        calls = []
        gradient = embeddings._gradient
        monkeypatch.setattr(embeddings, "_gradient", lambda *a: calls.append(1) or gradient(*a))
        infer_vectors(toks, trained_formula_table, range(_INFER_BLOCK), steps=3)
        assert len(calls) == 3 * max(lens)

    def test_leaves_trained_rows_bitwise_unchanged(self, trained_formula_table,
                                                   fixture_collection):
        t = trained_formula_table
        before = [a.copy() for a in (t.input_vectors, t.context_vectors, t.formula_vectors)]
        infer_vectors([f.tokens for f in fixture_collection.formulas.values()], t,
                      range(len(fixture_collection.formulas)), steps=3)
        for after, was in zip((t.input_vectors, t.context_vectors, t.formula_vectors), before):
            assert np.array_equal(after, was)

    def test_memory_is_bounded_by_the_block(self, trained_formula_table, fixture_collection):
        # inference keeps one block's working arrays at a time, so four
        # blocks of formulae peak little above their heaviest block alone
        import tracemalloc

        formulae = list(fixture_collection.formulas.values())
        four = [formulae[i % len(formulae)].tokens for i in range(4 * _INFER_BLOCK)]
        longest = sorted(four, key=len, reverse=True)[:_INFER_BLOCK]

        def peak(toks):
            tracemalloc.start()
            try:
                infer_vectors(toks, trained_formula_table, range(len(toks)), steps=50)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(four) <= 1.25 * peak(longest)

    def test_all_oov_formula_in_a_batch_is_none(self, trained_formula_table):
        got = infer_vectors([tokenize("\\nosuch"), tokenize("a + b")],
                            trained_formula_table, [1, 2], steps=2)
        assert got[0] is None and np.isfinite(got[1]).all()

    def test_negative_steps_rejected(self, trained_formula_table):
        with pytest.raises(ValueError, match="steps"):
            infer_vectors([tokenize("a + b")], trained_formula_table, [1], steps=-1)

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

    @pytest.mark.parametrize("power", ["NaN", "Infinity", "1e308"])
    def test_degenerate_sampling_power_rejected_with_line(self, trained_symbol_table,
                                                          tmp_path, capsys, power):
        prefix = tmp_path / "model"
        save_table(trained_symbol_table, prefix)
        meta = tmp_path / "model.meta.txt"
        text = meta.read_text()
        assert '"sampling_power":0.75,' in text
        meta.write_text(text.replace('"sampling_power":0.75,', f'"sampling_power":{power},'))
        with pytest.raises(MalformedRecord, match="model.meta.txt:2: .*sample power"):
            load_table(prefix)
        assert main(["neighbors", "--model", str(prefix), "--symbol", "a"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {meta}:2: ")

    def test_tampered_meta_rejected(self, trained_symbol_table, tmp_path):
        prefix = tmp_path / "model"
        save_table(trained_symbol_table, prefix)
        meta = tmp_path / "model.meta.txt"
        text = meta.read_text().replace('"vocab_fingerprint":"', '"vocab_fingerprint":"00')
        meta.write_text(text)
        with pytest.raises(MalformedRecord):
            load_table(prefix)
