"""Symbol and formula embedding training.

Both trainers share one SGD kernel: predict a target token from the mean of
its context rows against k sampled negatives,

    L = -log sigma(u_pos . h) - sum_n log sigma(-u_n . h)

where h is the mean of the context token input vectors, joined in formula
mode by the formula vector, one more member (a word-table row past the pad).
Gradients are exact: the gradient on h is split equally over every row that
entered the mean, so a finite-difference check of the applied updates
reproduces the analytic gradient.

One kernel, _sgd, applies this update to a block of positions at once:
every gradient in the block is taken from the rows as they were before it,
and the updates are summed into them (minibatch Hogwild; cbow_step and
pvdm_step are the kernel on a block of one).  Its gradient core, _gradient,
takes the dots, the sigmoid step of every output row and the step of every
member of the mean; _sgd forms the context means and adds the updates.  The
output and word rows (formula rows among them) take theirs as one product
each over the block's own distinct rows (a positions x distinct-rows
coefficient matrix from one np.bincount, times the context means or the
member steps), so a block's cost does not grow with the vocabulary.
Training walks each epoch's positions position-major (the first position of
every formula, then the second, ...) in blocks of _BLOCK, so a block rarely
updates one formula row twice; the learning rate falls linearly over the
global position index.
Randomness is drawn in bulk, once per epoch: one call for every window
width and one for every negative, with negatives that equal their target
redrawn together, in at most 100 rounds, and then dropped.  What depends
only on those draws (each context's members and count, each position's
output rows and which of them are live, each block's distinct rows and
where every entry falls in its coefficient matrix) is built once per epoch,
with one sort over all blocks, as a list of blocks, each one _sgd call's
arguments; the epoch's loss comes from the dots _sgd returns, in one call
after its last block.  Training is deterministic for a given (corpus,
config, seed) on one BLAS build, which fixes the products' summation order.

Inference of unseen formulae (infer_vectors, and infer_vector for one) runs
the same gradient core with the trained rows frozen, updating a new formula
vector alone at the model's own rate.  Formulae are therefore independent, and
a batch of them runs in lockstep, one position of each per step.  Every
formula vector starts at zero, and every formula draws its widths and
negatives up front from its own seeded generator.  What depends only on those
draws and the frozen rows (each draw's output rows in one (step x formula)
grid, and the size and word-row sum of the window of every (position, width))
is laid out once per block, so a step gathers its window sums and updates the
formula vectors, nothing more.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, artifacts
from .corpus import Vocabulary
from .errors import (
    DimensionMismatch,
    EmptyContext,
    EmptyCorpus,
    MalformedRecord,
    UnknownTokensOnly,
)

DOCVEC_HEADER = "MATHEMB-DOCVEC v1"
MODEL_HEADER = "MATHEMB-MODEL v1"


class Mode(Enum):
    SYMBOL2VEC = "symbol2vec"
    FORMULA2VEC = "formula2vec"


@dataclass(frozen=True)
class TrainingConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr_start: float = 0.025
    lr_end: float = 0.0001
    seed: int = 1
    mode: Mode = Mode.SYMBOL2VEC

    def __post_init__(self):
        for name, least in (("dim", 1), ("window", 1), ("negatives", 1), ("epochs", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int:      # a bool passes isinstance(value, int)
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if not (all(type(r) in (int, float) for r in (self.lr_start, self.lr_end))
                and 0 < self.lr_end <= self.lr_start <= sys.float_info.max):
            raise ValueError("need lr_start >= lr_end > 0")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "mode": self.mode.value}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainingConfig":
        return cls(**{**d, "mode": Mode(d["mode"])})


@dataclass
class EmbeddingTable:
    """Trained vectors plus everything needed to reuse them.

    input_vectors[i] is the embedding of vocab surface i; context_vectors
    holds the output-side rows used by the objective.  formula_vectors (one
    row per training-corpus formula, aligned with formula_ids) exists only
    in formula mode.
    """

    config: TrainingConfig
    vocab: Vocabulary
    input_vectors: np.ndarray
    context_vectors: np.ndarray
    formula_vectors: np.ndarray | None = None
    formula_ids: list[str] | None = None
    epoch_losses: list[float] = field(default_factory=list)
    skipped_short: int = 0

    def __post_init__(self):
        self._formula_row = (
            {fid: i for i, fid in enumerate(self.formula_ids)} if self.formula_ids else {}
        )

    @property
    def vocab_fingerprint(self) -> str:
        return self.vocab.fingerprint()

    def vector(self, surface: str) -> np.ndarray:
        return self.input_vectors[self.vocab.index[surface]]

    def formula_vector(self, formula_id: str) -> np.ndarray | None:
        row = self._formula_row.get(formula_id)
        return None if row is None else self.formula_vectors[row]


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)          # finite for every finite x


def nce_loss(center, positive, negatives) -> float:
    """Negative-sampling loss of one (context mean, target, negatives) triple."""
    h = np.asarray(center, dtype=np.float64)
    rows = [np.asarray(u, dtype=np.float64) for u in (positive, *negatives)]
    for i, u in enumerate(rows):
        if u.shape != h.shape:
            raise DimensionMismatch(f"center {h.shape} vs {'negative' if i else 'positive'} "
                                    f"{u.shape}")
    return float(_loss(np.array([[u @ h for u in rows]]), live=True)[0])


def _gradient(h, u, live, lr, n_members):
    """The gradient core of _sgd, shared with inference: for m context means
    h (m, d) against their output rows u (m, k+1, d), target first, returns
    the dots (m, k+1), the output step (each row's dL/d(u.h) times -lr, 0
    where live is False) and the step of every member of the mean, (m, d)."""
    dots = np.einsum("mkd,md->mk", u, h)
    step = np.exp(-np.logaddexp(0.0, -dots))  # sigma(u.h), overflow-free
    step[:, 0] -= 1.0                       # dL/d(u.h)
    step *= live * -np.reshape(lr, (-1, 1))
    return dots, step, np.einsum("mk,mkd->md", step, u) / n_members[:, None]


# Positions updated together per training block.  A block's updates are all
# taken from the rows as they were before it (see _sgd), and are summed in
# one product per table over its distinct rows, so the block size fixes both
# the updates and their summation order: it is part of the model a seed
# gives.
_BLOCK = 16


class _Rows(NamedTuple):
    """The rows that one block of positions adds to, entry by entry.  ids
    holds each entry's row: one entry per context member (flat), or one per
    output row of each position, (m, k+1).  distinct holds the block's
    distinct rows, and at each entry's index in the block's (positions x
    distinct rows) coefficient matrix, row-major, so that one np.bincount
    builds that matrix."""

    ids: np.ndarray
    distinct: np.ndarray
    at: np.ndarray


def _block_rows(ids, counts) -> list[_Rows]:
    """One _Rows per block of _BLOCK positions, for the entries ids, counts[p]
    of them for the p-th position (ids flat, or one row per position).  One
    sort of every (block, row) key finds each block's distinct rows, so no
    block sorts its own, and a block's coefficient matrix has a column per
    row it uses, never one per row of the table.  (np.unique would do the
    same with about twice the temporary memory.)"""
    m, size = len(counts), int(ids.max()) + 1
    block_of = np.arange(m) // _BLOCK
    keys = np.repeat(block_of * size, counts)
    keys += ids.ravel()
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    distinct = keys[new]
    starts = np.arange(block_of[-1] + 2) * size   # each block's first key, then the end
    firsts = np.searchsorted(distinct, starts)
    at = np.empty(len(keys), dtype=np.int32)
    at[order] = np.cumsum(new, dtype=np.int32) - 1
    at += np.repeat(np.arange(m) % _BLOCK * np.diff(firsts)[block_of] - firsts[block_of], counts)
    at, distinct, firsts = at.reshape(ids.shape), distinct % size, firsts.tolist()
    # each block's first entry, counted in rows of ids (an entry, or a position's)
    edges = (np.searchsorted(keys, starts) * len(ids) // ids.size).tolist()
    return [_Rows(ids[i:end], distinct[first:last], at[i:end])
            for i, end, first, last in zip(edges, edges[1:], firsts, firsts[1:])]


def _tables(ctx, targets, negatives, pad, lr):
    """Each block's _sgd arguments after the two tables, for m positions in
    blocks of _BLOCK: the contexts, their member counts, the members as
    _Rows of the word table, each position's output rows (target first) as
    _Rows of the output table, their live mask (False for a dropped
    negative) and lr, one rate per position.  All but lr depend on the
    draws alone; training builds them once per epoch."""
    m = len(ctx)
    in_ctx = ctx != pad
    n_ctx = np.count_nonzero(in_ctx, axis=1)
    rows = np.concatenate((targets[:, None], negatives), axis=1)
    live = rows != pad
    bounds = [*range(0, m, _BLOCK), m]
    members = _block_rows(ctx[in_ctx], n_ctx)
    outs = _block_rows(rows, np.full(m, rows.shape[1]))
    return [(ctx[i:end], n_ctx[i:end], c, o, live[i:end], lr[i:end])
            for i, end, c, o in zip(bounds, bounds[1:], members, outs)]


def _add(table, rows: _Rows, values, weights=None) -> None:
    """table[rows.ids[e]] += weights[e] * values[p] for every entry e of one
    block, p being e's position (weight 1 where weights is None), as one
    product over the block's distinct rows: the transposed (positions x
    distinct rows) coefficient matrix times values."""
    coef = np.bincount(rows.at.ravel(), None if weights is None else weights.ravel(),
                       len(values) * len(rows.distinct)).astype(float, copy=False)
    table[rows.distinct] += coef.reshape(len(values), -1).T @ values


def _sgd(words, outputs, ctx, n_ctx, members, rows, live, lr) -> np.ndarray:
    """One simultaneous SGD update over m positions, one block; returns the
    pre-update dots (m, k+1) of each position's output rows, from which
    _loss gives its loss.

    The arguments after the two tables are one block of _tables.  ctx
    (m, c) indexes words, words[pad] being a zero row that fills the empty
    slots (in formula mode the last column is the formula's row), and
    rows.ids index outputs.  h is the mean of the context rows.  Every
    gradient is taken at the rows as they are on entry and the m updates
    are summed into them, so a row used twice in the block gets both: _add
    sums each table's in one product.
    """
    h = words[ctx].sum(axis=1) / n_ctx[:, None]
    dots, step, member_step = _gradient(h, outputs[rows.ids], live, lr, n_ctx)
    _add(outputs, rows, h, step)
    _add(words, members, member_step)
    return dots


def _loss(dots, live) -> np.ndarray:
    """Each position's negative-sampling loss from its _sgd dots."""
    sign = np.ones(dots.shape[1])
    sign[1:] = -1.0                         # a negative's loss is -log sigma(-u.h)
    return -(_log_sigmoid(sign * dots) * live).sum(axis=1)


def _one_step(table: EmbeddingTable, doc_row, context_indices, target_index,
              negative_indices, lr: float) -> float:
    """_sgd on one position, over the rows stacked as training lays them
    out (input | pad | formula), which are then written back."""
    pad, dim = table.input_vectors.shape    # as many rows as context_vectors
    docs = np.empty((0, dim)) if table.formula_vectors is None else table.formula_vectors
    ctx = np.asarray(context_indices, dtype=np.intp).reshape(1, -1)
    negatives = np.asarray(negative_indices, dtype=np.intp).reshape(1, -1)
    for kind, indices, n in (("context", ctx, pad), ("target", target_index, pad),
                             ("negative", negatives, pad),
                             ("formula row", [] if doc_row is None else doc_row, len(docs))):
        for i in np.ravel(indices):
            if not 0 <= i < n:
                raise ValueError(f"{kind} index {i} is outside [0, {n})")
    if (negatives == target_index).any():
        raise ValueError("target index must not appear among the negatives")
    if doc_row is not None:
        ctx = np.append(ctx, [[pad + 1 + doc_row]], axis=1)
    words = np.vstack((table.input_vectors, np.zeros((1, dim)), docs))
    (block,) = _tables(ctx, np.array([target_index]), negatives, pad, [lr])
    dots = _sgd(words, table.context_vectors, *block)
    table.input_vectors[:], docs[:] = words[:pad], words[pad + 1:]
    return float(_loss(dots, block[4])[0])


def cbow_step(table: EmbeddingTable, context_indices, target_index,
              negative_indices, lr: float) -> float:
    """Single CBOW update on the table; returns the pre-update loss."""
    if len(context_indices) == 0:
        raise EmptyContext("cbow_step needs at least one context token")
    return _one_step(table, None, context_indices, target_index, negative_indices, lr)


def pvdm_step(table: EmbeddingTable, formula_row: int, context_indices,
              target_index, negative_indices, lr: float) -> float:
    """Single PV-DM update: the formula row joins the context mean, and
    forms it alone when the token context is empty."""
    return _one_step(table, formula_row, context_indices, target_index, negative_indices, lr)


def _encode(tokens, vocab: Vocabulary) -> np.ndarray:
    """Vocabulary indices of the in-vocabulary tokens."""
    index = vocab.index
    return np.asarray([index[t.surface] for t in tokens if t.surface in index], dtype=np.intp)


def _lay_out(seqs, window: int, pad: int):
    """The sequences end to end in one array, with window pad entries before
    each and after the last, so that every window around a position stays
    inside the array and never reaches another sequence; returns the array
    and the index of each sequence's first entry."""
    lens = np.array([len(seq) for seq in seqs])
    starts = window + np.concatenate(([0], np.cumsum(lens + window)[:-1]))
    flat = np.full(starts[-1] + lens[-1] + window, pad, dtype=np.intp)
    for start, seq in zip(starts, seqs):
        flat[start:start + len(seq)] = seq
    return flat, starts


def _windows(flat, centers, widths, window: int, pad: int) -> np.ndarray:
    """(m, 2 * window) context of each center in a _lay_out array; slots
    farther from the center than its width hold pad."""
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    ctx = flat[centers[:, None] + offsets]
    ctx[np.abs(offsets) > widths[:, None]] = pad
    return ctx


def _negatives(vocab: Vocabulary, rng: np.random.Generator, targets, k: int,
               pad: int) -> np.ndarray:
    """(len(targets), k) draws from the unigram^power table, from one
    rng.random call.  Draws equal to their target are redrawn together, one
    rng.random call per round, for at most 100 rounds; any still equal are
    dropped (set to pad)."""
    negatives = vocab.quantile(rng.random((len(targets), k)))
    for _ in range(100):
        clash = np.nonzero(negatives == targets[:, None])
        if not len(clash[0]):
            return negatives
        negatives[clash] = vocab.quantile(rng.random(len(clash[0])))
    negatives[negatives == targets[:, None]] = pad
    return negatives


def _train(formulas, vocab: Vocabulary, config: TrainingConfig) -> EmbeddingTable:
    formulas = list(formulas)
    if not formulas:
        raise EmptyCorpus("training corpus is empty")
    seqs = [_encode(f.tokens, vocab) for f in formulas]

    rng = np.random.default_rng(config.seed)
    dim, window, pad = config.dim, config.window, len(vocab)
    formula_mode = config.mode is Mode.FORMULA2VEC
    bound = 0.5 / dim
    # vocabulary rows | a zero row for short windows and dropped negatives | formula rows
    words = np.zeros((pad + 1 + len(seqs) * formula_mode, dim))
    words[:pad] = rng.uniform(-bound, bound, (pad, dim))
    outputs = np.zeros((pad + 1, dim))
    words[pad + 1:] = rng.uniform(-bound, bound, (len(seqs) * formula_mode, dim))

    # a position needs a context token or, in formula mode, the formula row
    # and one more token to predict from it; either way two tokens
    trainable = [row for row, seq in enumerate(seqs) if len(seq) >= 2]
    if not trainable:
        raise EmptyCorpus("no formula long enough to train on")
    table = EmbeddingTable(
        config=config, vocab=vocab,
        input_vectors=words[:pad], context_vectors=outputs[:pad],
        formula_vectors=words[pad + 1:] if formula_mode else None,
        formula_ids=[f.id for f in formulas] if formula_mode else None,
        skipped_short=len(seqs) - len(trainable),
    )

    lens = [len(seqs[row]) for row in trainable]
    flat, starts = _lay_out([seqs[row] for row in trainable], window, pad)
    # position-major walk (every formula's first position, then every second
    # one, ...), so that a block's positions come from different formulae
    # wherever there are enough of them
    offsets = np.concatenate([np.arange(size) for size in lens])
    order = np.argsort(offsets, kind="stable")
    centers = (np.repeat(starts, lens) + offsets)[order]
    doc_rows = pad + 1 + np.repeat(trainable, lens)[order, None]
    targets = flat[centers]
    n = len(centers)
    lr_span, denom = config.lr_start - config.lr_end, max(1, config.epochs * n - 1)
    for epoch in range(config.epochs):
        # the learning rate falls linearly over the global position index
        lr = config.lr_start - lr_span * ((epoch * n + np.arange(n)) / denom)
        widths = rng.integers(1, window + 1, n)
        negatives = _negatives(vocab, rng, targets, config.negatives, pad)
        ctx = _windows(flat, centers, widths, window, pad)
        if formula_mode:
            ctx = np.hstack((ctx, doc_rows))
        table.epoch_losses.append(_epoch(words, outputs, ctx, targets, negatives, lr, pad))
    return table


def _epoch(words, outputs, ctx, targets, negatives, lr, pad) -> float:
    """One epoch of _sgd in blocks of _BLOCK, from the epoch's draws; returns
    its mean loss.  Its _tables live only while it runs, so they are gone
    before the next epoch builds its own."""
    blocks = _tables(ctx, targets, negatives, pad, lr)
    dots = [_sgd(words, outputs, *block) for block in blocks]
    return float(_loss(np.concatenate(dots), np.concatenate([b[4] for b in blocks])).mean())


def train_symbol2vec(formulas, vocab: Vocabulary, config: TrainingConfig) -> EmbeddingTable:
    """Train token embeddings with CBOW + negative sampling."""
    if config.mode is not Mode.SYMBOL2VEC:
        raise ValueError("config.mode must be SYMBOL2VEC")
    return _train(formulas, vocab, config)


def train_formula2vec(formulas, vocab: Vocabulary, config: TrainingConfig) -> EmbeddingTable:
    """Train per-formula vectors with PV-DM (formula row averaged into the context)."""
    if config.mode is not Mode.FORMULA2VEC:
        raise ValueError("config.mode must be FORMULA2VEC")
    return _train(formulas, vocab, config)


# Formulae inferred together per block.  A block runs in lockstep, one
# step per position of its longest formula per pass, so fewer blocks mean
# fewer steps; its tables set the size.  Per formula of 9 tokens at dim 50,
# window 5, 5 negatives and 50 steps they hold
#   window sums (45 (position, width) rows x 50 floats)   18,000 bytes
#   window member counts (45)                               360
#   each draw's window (450 draws, int32)                 1,800
#   each draw's output rows (450 x 6, int32)             10,800
#   the formula vector                                      400
# 31,360 bytes in all, so 256 formulae keep 7.66 MiB, within a budget of
# 8 MiB; the draw grid pads a shorter formula to the block's longest.  The
# window table the sums come from (3,600 bytes a formula) lives only while
# they are built, and a step's temporaries add about 5,000 bytes a formula
# (tracemalloc peak of one such block: 8.9 MiB).  However many formulae
# one call infers, memory stays that of one block.
_INFER_BLOCK = 256


def infer_vectors(token_lists, table: EmbeddingTable, seeds,
                  steps: int = 50) -> list[np.ndarray | None]:
    """Vectors for unseen formulae under a trained formula-mode table.

    Formula i gets steps >= 1 PV-DM passes over its in-vocabulary tokens
    that update only its own new vector, which starts at zero, at a rate
    falling linearly from the model's lr_start to its lr_end; word and
    context rows stay frozen.  Its own np.random.default_rng(seeds[i]) draws,
    up front, every window width, then every negative, so a formula's vector
    does not depend on the others inferred with it: it is the same, bit for
    bit, inferred alone or in any batch.  The formulae run in blocks of
    _INFER_BLOCK, in lockstep, one position of each per step, each step one
    _gradient call over the block's running formulae (see _infer_block), so
    a block takes steps times its longest formula's length in steps.  A
    formula whose tokens are all out of vocabulary gets None.
    """
    if table.config.mode is not Mode.FORMULA2VEC:
        raise ValueError("inference needs a table trained in formula2vec mode")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    seqs = [_encode(tokens, table.vocab) for tokens in token_lists]
    seeds = list(seeds)
    if len(seeds) != len(seqs):
        raise ValueError(f"{len(seqs)} formulae but {len(seeds)} seeds")
    # longest first, so each block's active formulae are a prefix of it
    order = sorted((i for i, seq in enumerate(seqs) if len(seq)), key=lambda i: -len(seqs[i]))
    dim = table.config.dim
    words = np.vstack((table.input_vectors, np.zeros((1, dim))))
    outputs = np.vstack((table.context_vectors, np.zeros((1, dim))))
    out: list[np.ndarray | None] = [None] * len(seqs)
    for start in range(0, len(order), _INFER_BLOCK):
        block = order[start:start + _INFER_BLOCK]
        vecs = _infer_block([seqs[i] for i in block], [seeds[i] for i in block],
                            table, words, outputs, steps)
        for i, vec in zip(block, vecs):
            out[i] = vec
    return out


def _window_sums(words, seqs, window: int, pad: int):
    """Token count and sum of word rows (the sum words[ctx].sum(axis=1)
    gives) of every context window of the sequences, row p * window + b - 1
    being the width-b window around the p-th position, sequence by sequence.
    The gather runs one sequence at a time, so its (rows, 2 * window, dim)
    temporary stays one sequence's size."""
    flat, _ = _lay_out(seqs, window, pad)
    centers = np.flatnonzero(flat != pad)
    contexts = _windows(flat, np.repeat(centers, window),
                        np.tile(np.arange(1, window + 1), len(centers)), window, pad)
    sums = np.empty((len(contexts), words.shape[1]))
    ends = np.cumsum([0, *(len(seq) * window for seq in seqs)])
    for start, stop in zip(ends[:-1], ends[1:]):
        sums[start:stop] = words[contexts[start:stop]].sum(axis=1)
    return np.count_nonzero(contexts != pad, axis=1), sums


def _infer_block(seqs, seeds, table: EmbeddingTable, words, outputs, steps: int) -> np.ndarray:
    """Lockstep inference of non-empty sequences sorted by length, longest
    first.  The window sums and every draw's rows are laid out before the
    step loop, which updates the formula vectors alone: formula i's s-th
    draw is cell [s, i] of one (step x formula) grid, step s reads row s up
    to the formulae still running, and no cell past a formula's last draw
    is read."""
    config = table.config
    dim, window, pad = config.dim, config.window, len(table.vocab)
    lens = np.array([len(seq) for seq in seqs])
    members, sums = _window_sums(words, seqs, window, pad)
    members += 1                            # the formula row joins every window
    firsts = np.cumsum(lens) - lens
    n_steps = steps * lens
    vecs = np.zeros((len(seqs), dim))
    ctx_rows = np.empty((n_steps[0], len(seqs)), dtype=np.int32)
    out_rows = np.empty((n_steps[0], len(seqs), config.negatives + 1), dtype=np.int32)
    for i, (seq, seed) in enumerate(zip(seqs, seeds)):
        rng, n = np.random.default_rng(seed), n_steps[i]
        positions = np.tile(np.arange(firsts[i], firsts[i] + lens[i]), steps)
        ctx_rows[:n, i] = positions * window + rng.integers(1, window + 1, n) - 1
        out_rows[:n, i, 0] = targets = np.tile(seq, steps)
        out_rows[:n, i, 1:] = _negatives(table.vocab, rng, targets, config.negatives, pad)

    lr, lr_end = config.lr_start, config.lr_end
    totals = np.maximum(1, n_steps - 1)
    running = np.searchsorted(-n_steps, -np.arange(n_steps[0]))
    for step, active in enumerate(running):
        ctx, out = ctx_rows[step, :active], out_rows[step, :active]
        n_members = members[ctx]
        h = sums[ctx]
        h += vecs[:active]
        h /= n_members[:, None]
        _, _, member_step = _gradient(h, outputs[out], out != pad,
                                      lr - (lr - lr_end) * (step / totals[:active]), n_members)
        vecs[:active] += member_step
    return vecs


def infer_vector(tokens, table: EmbeddingTable, steps: int = 50, seed: int = 0) -> np.ndarray:
    """Vector for one unseen formula: infer_vectors on a batch of one.

    Out-of-vocabulary tokens are skipped; if nothing remains,
    UnknownTokensOnly is raised.
    """
    vec = infer_vectors([tokens], table, [seed], steps=steps)[0]
    if vec is None:
        raise UnknownTokensOnly("every token is out of vocabulary")
    return vec


# ---------------------------------------------------------------------------
# persistence (word2vec-style text interchange)


def _model_meta(payload) -> tuple[TrainingConfig, Vocabulary]:
    config = TrainingConfig.from_json_dict(payload["config"])
    if type(payload["seed"]) is not int or payload["seed"] != config.seed:
        raise MalformedRecord(f"seed {payload['seed']!r} differs from config seed {config.seed}")
    vocab = Vocabulary([s for s, _ in payload["vocab_counts"]],
                       [c for _, c in payload["vocab_counts"]], payload["sampling_power"])
    if vocab.fingerprint() != payload["vocab_fingerprint"]:
        raise MalformedRecord("vocabulary fingerprint mismatch")
    if payload["has_formula_vectors"] is not (config.mode is Mode.FORMULA2VEC):
        raise MalformedRecord(f"has_formula_vectors does not match mode {config.mode.value}")
    return config, vocab


def save_table(table: EmbeddingTable, prefix) -> None:
    """Write <prefix>.wv.txt / .ctx.txt / .dv.txt / .meta.txt."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    comment = {"tool": "mathemb", "version": __version__, "seed": table.config.seed,
               "config": artifacts.to_json(table.config.to_json_dict())}
    surfaces = table.vocab.surfaces
    artifacts.write_vectors(f"{prefix}.wv.txt", surfaces, table.input_vectors, meta=comment)
    artifacts.write_vectors(f"{prefix}.ctx.txt", surfaces, table.context_vectors, meta=comment)
    if table.formula_vectors is not None:
        artifacts.write_vectors(f"{prefix}.dv.txt", table.formula_ids, table.formula_vectors,
                                DOCVEC_HEADER, comment)
    payload = {
        **comment,
        "config": table.config.to_json_dict(),
        "vocab_counts": [[s, c] for s, c in zip(table.vocab.surfaces, table.vocab.counts)],
        "sampling_power": table.vocab.power,
        "vocab_fingerprint": table.vocab_fingerprint,
        "has_formula_vectors": table.formula_vectors is not None,
    }
    artifacts.write(f"{prefix}.meta.txt", [artifacts.to_json(payload)], MODEL_HEADER)


def load_table(prefix) -> EmbeddingTable:
    prefix = Path(prefix)
    records = artifacts.read_records(f"{prefix}.meta.txt", _model_meta, MODEL_HEADER)
    if not records:
        raise MalformedRecord(f"{prefix}.meta.txt: no model record")
    config, vocab = records[0]

    wv_labels, input_vectors = artifacts.read_vectors(f"{prefix}.wv.txt")
    if wv_labels != vocab.surfaces:
        raise MalformedRecord(f"{prefix}.wv.txt: surfaces do not match the stored vocabulary")
    if input_vectors.shape[1] != config.dim:
        raise MalformedRecord(f"{prefix}.wv.txt: dim {input_vectors.shape[1]} differs "
                              f"from {prefix}.meta.txt dim {config.dim}")
    ctx_labels, context_vectors = artifacts.read_vectors(f"{prefix}.ctx.txt")
    if ctx_labels != vocab.surfaces or context_vectors.shape != input_vectors.shape:
        raise MalformedRecord(f"{prefix}.ctx.txt: rows do not match {prefix}.wv.txt")

    formula_ids = formula_vectors = None
    if config.mode is Mode.FORMULA2VEC:
        formula_ids, formula_vectors = artifacts.read_vectors(f"{prefix}.dv.txt", DOCVEC_HEADER)
        if formula_vectors.shape[1] != input_vectors.shape[1]:
            raise MalformedRecord(f"{prefix}.dv.txt: dim {formula_vectors.shape[1]} differs "
                                  f"from {prefix}.wv.txt dim {input_vectors.shape[1]}")
    return EmbeddingTable(
        config=config, vocab=vocab,
        input_vectors=input_vectors, context_vectors=context_vectors,
        formula_vectors=formula_vectors, formula_ids=formula_ids,
    )
