"""Symbol and formula embedding training.

Both trainers share one SGD kernel: predict a target token from the mean of
its context rows against k sampled negatives,

    L = -log sigma(u_pos . h) - sum_n log sigma(-u_n . h)

where h is the mean of the context token input vectors (symbol mode) or the
mean of the formula vector together with the context token input vectors
(formula mode).  Gradients are exact: the gradient on h is split equally over
every row that entered the mean, so a finite-difference check of the applied
updates reproduces the analytic gradient.

Training is deterministic for a given (corpus, config, seed) when workers=1;
the optional multi-worker mode updates shared tables without locks and is
only statistically reproducible.

Inference of unseen formulae (infer_vectors, and infer_vector for one)
applies the same PV-DM update to a new formula vector alone, the trained
rows frozen.  Formulae are therefore independent, and a batch of them runs
in lockstep, one position of each per step, so the arithmetic of a step is a
few numpy calls over the whole batch while every formula keeps its own
seeded generator.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import Vocabulary
from .errors import (
    DimensionMismatch,
    EmptyContext,
    EmptyCorpus,
    MalformedRecord,
    UnknownTokensOnly,
)
from .tokenizer import SymbolToken, TokenizedFormula

DOCVEC_HEADER = "MATHEMB-DOCVEC v1"
MODEL_HEADER = "MATHEMB-MODEL v1"

_CLAMP = 30.0


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
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.lr_start >= self.lr_end > 0):
            raise ValueError("need lr_start >= lr_end > 0")

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("dim", "window", "negatives", "epochs", "lr_start", "lr_end", "seed")}
        d["mode"] = self.mode.value
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainingConfig":
        d = dict(d)
        d["mode"] = Mode(d["mode"])
        return cls(**d)


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
    vocab_fingerprint: str = ""
    epoch_losses: list[float] = field(default_factory=list)
    skipped_short: int = 0

    def __post_init__(self):
        if not self.vocab_fingerprint:
            self.vocab_fingerprint = self.vocab.fingerprint()
        self._formula_row = (
            {fid: i for i, fid in enumerate(self.formula_ids)} if self.formula_ids else {}
        )

    def vector(self, surface: str) -> np.ndarray:
        return self.input_vectors[self.vocab.index[surface]]

    def formula_vector(self, formula_id: str) -> np.ndarray | None:
        row = self._formula_row.get(formula_id)
        return None if row is None else self.formula_vectors[row]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # clamp pre-activations so the loss stays finite on extreme inputs
    x = np.clip(x, -_CLAMP, _CLAMP)
    return -np.logaddexp(0.0, -x)


def nce_loss(center, positive, negatives) -> float:
    """Negative-sampling loss of one (context mean, target, negatives) triple."""
    h = np.asarray(center, dtype=np.float64)
    u = np.asarray(positive, dtype=np.float64)
    if h.shape != u.shape:
        raise DimensionMismatch(f"center {h.shape} vs positive {u.shape}")
    loss = -float(_log_sigmoid(np.array([u @ h]))[0])
    for neg in negatives:
        un = np.asarray(neg, dtype=np.float64)
        if un.shape != h.shape:
            raise DimensionMismatch(f"center {h.shape} vs negative {un.shape}")
        loss -= float(_log_sigmoid(np.array([-(un @ h)]))[0])
    return loss


def _step(input_vectors, context_vectors, doc_vectors, doc_row,
          context_indices, target_index, negative_indices, lr) -> float:
    """One SGD step; returns the pre-update loss.  doc_row is None in symbol mode."""
    ctx = np.asarray(context_indices, dtype=np.intp)
    n_members = len(ctx) + (1 if doc_row is not None else 0)
    if n_members == 0:
        raise EmptyContext("no context tokens at this position")
    if len(ctx):
        h = input_vectors[ctx].sum(axis=0)
    else:
        h = np.zeros(input_vectors.shape[1])
    if doc_row is not None:
        h = h + doc_vectors[doc_row]
    h /= n_members

    rows = np.empty(1 + len(negative_indices), dtype=np.intp)
    rows[0] = target_index
    rows[1:] = negative_indices
    u = context_vectors[rows]
    dots = u @ h
    loss = float(-_log_sigmoid(dots[:1])[0] - _log_sigmoid(-dots[1:]).sum())

    g = _sigmoid(dots)
    g[0] -= 1.0                      # dL/d(dots)
    grad_h = g @ u
    np.subtract.at(context_vectors, rows, lr * np.outer(g, h))
    member_grad = (lr / n_members) * grad_h
    if len(ctx):
        np.subtract.at(input_vectors, ctx, member_grad)
    if doc_row is not None:
        doc_vectors[doc_row] -= member_grad
    return loss


def cbow_step(table: EmbeddingTable, context_indices, target_index,
              negative_indices, lr: float) -> float:
    """Single CBOW update on the table; returns the pre-update loss."""
    if len(context_indices) == 0:
        raise EmptyContext("cbow_step needs at least one context token")
    if target_index in set(int(i) for i in negative_indices):
        raise ValueError("target index must not appear among the negatives")
    return _step(table.input_vectors, table.context_vectors, None, None,
                 context_indices, target_index, negative_indices, lr)


def pvdm_step(table: EmbeddingTable, formula_row: int, context_indices,
              target_index, negative_indices, lr: float) -> float:
    """Single PV-DM update: the formula row joins the context mean.

    The token context may be empty; the formula vector alone then forms h.
    """
    if target_index in set(int(i) for i in negative_indices):
        raise ValueError("target index must not appear among the negatives")
    return _step(table.input_vectors, table.context_vectors,
                 table.formula_vectors, formula_row,
                 context_indices, target_index, negative_indices, lr)


def _sample_negatives(vocab: Vocabulary, rng: np.random.Generator,
                      k: int, target: int) -> list[int]:
    """k draws from the unigram^power table; collisions with the target are
    resampled up to 100 times each, then dropped."""
    return _replace_collisions(vocab, rng, vocab.sample(rng, k), target)


def _replace_collisions(vocab: Vocabulary, rng: np.random.Generator,
                        draws, target: int) -> list[int]:
    """draws with each draw equal to target resampled from rng, in order, up
    to 100 times; a draw that still collides is dropped."""
    out = []
    for d in draws:
        d = int(d)
        if d == target:
            for _ in range(100):
                d = int(vocab.sample(rng, 1)[0])
                if d != target:
                    break
            else:
                continue
        out.append(d)
    return out


def _encode(formulas, vocab: Vocabulary):
    encoded = []
    for f in formulas:
        idx = [vocab.index[t.surface] for t in f.tokens if t.surface in vocab.index]
        encoded.append((f.id, np.asarray(idx, dtype=np.intp)))
    return encoded


def _context(seq: np.ndarray, pos: int, b: int) -> np.ndarray:
    lo = max(0, pos - b)
    return np.concatenate((seq[lo:pos], seq[pos + 1:pos + 1 + b]))


def _train(formulas, vocab: Vocabulary, config: TrainingConfig,
           with_docs: bool, workers: int = 1) -> EmbeddingTable:
    formulas = list(formulas)
    if not formulas:
        raise EmptyCorpus("training corpus is empty")
    encoded = _encode(formulas, vocab)

    rng = np.random.default_rng(config.seed)
    dim = config.dim
    bound = 0.5 / dim
    input_vectors = rng.uniform(-bound, bound, (len(vocab), dim))
    context_vectors = np.zeros((len(vocab), dim))
    formula_vectors = None
    formula_ids = None
    if with_docs:
        formula_ids = [fid for fid, _ in encoded]
        formula_vectors = rng.uniform(-bound, bound, (len(encoded), dim))

    min_len = 2 if with_docs else 1
    trainable = [(row, seq) for row, (_, seq) in enumerate(encoded) if len(seq) >= min_len]
    skipped_short = len(encoded) - len(trainable)
    if not trainable:
        raise EmptyCorpus("no formula long enough to train on")

    table = EmbeddingTable(
        config=config, vocab=vocab,
        input_vectors=input_vectors, context_vectors=context_vectors,
        formula_vectors=formula_vectors, formula_ids=formula_ids,
        skipped_short=skipped_short,
    )

    if workers > 1:
        _train_parallel(table, trainable, with_docs, workers)
        return table

    positions_per_epoch = sum(len(seq) for _, seq in trainable)
    total_steps = config.epochs * positions_per_epoch
    lr_span = config.lr_start - config.lr_end
    denom = max(1, total_steps - 1)

    step = 0
    for _ in range(config.epochs):
        epoch_loss = 0.0
        epoch_steps = 0
        for row, seq in trainable:
            doc_row = row if with_docs else None
            for pos in range(len(seq)):
                lr = config.lr_start - lr_span * (step / denom)
                step += 1
                b = int(rng.integers(1, config.window + 1))
                ctx = _context(seq, pos, b)
                if len(ctx) == 0 and not with_docs:
                    continue
                target = int(seq[pos])
                negs = _sample_negatives(vocab, rng, config.negatives, target)
                epoch_loss += _step(input_vectors, context_vectors,
                                    formula_vectors, doc_row, ctx, target, negs, lr)
                epoch_steps += 1
        table.epoch_losses.append(epoch_loss / max(1, epoch_steps))
    return table


def _train_parallel(table: EmbeddingTable, trainable, with_docs: bool, workers: int):
    """Lock-free shared-table training; run-dependent by design."""
    config = table.config
    shards = [trainable[w::workers] for w in range(workers)]
    lr_span = config.lr_start - config.lr_end

    def work(worker_id: int):
        shard = shards[worker_id]
        if not shard:
            return
        wrng = np.random.default_rng((config.seed, worker_id))
        per_epoch = sum(len(seq) for _, seq in shard)
        total = max(1, config.epochs * per_epoch - 1)
        step = 0
        for _ in range(config.epochs):
            for row, seq in shard:
                doc_row = row if with_docs else None
                for pos in range(len(seq)):
                    lr = config.lr_start - lr_span * (step / total)
                    step += 1
                    b = int(wrng.integers(1, config.window + 1))
                    ctx = _context(seq, pos, b)
                    if len(ctx) == 0 and not with_docs:
                        continue
                    target = int(seq[pos])
                    negs = _sample_negatives(table.vocab, wrng, config.negatives, target)
                    _step(table.input_vectors, table.context_vectors,
                          table.formula_vectors, doc_row, ctx, target, negs, lr)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def train_symbol2vec(formulas, vocab: Vocabulary, config: TrainingConfig,
                     workers: int = 1) -> EmbeddingTable:
    """Train token embeddings with CBOW + negative sampling."""
    if config.mode is not Mode.SYMBOL2VEC:
        raise ValueError("config.mode must be SYMBOL2VEC")
    return _train(formulas, vocab, config, with_docs=False, workers=workers)


def train_formula2vec(formulas, vocab: Vocabulary, config: TrainingConfig,
                      workers: int = 1) -> EmbeddingTable:
    """Train per-formula vectors with PV-DM (formula row averaged into the context)."""
    if config.mode is not Mode.FORMULA2VEC:
        raise ValueError("config.mode must be FORMULA2VEC")
    return _train(formulas, vocab, config, with_docs=True, workers=workers)


# Formulae inferred together per block.  Inference keeps per-block working
# arrays of (block, 2 * window, dim) floats, so the block size bounds memory
# however many formulae one call infers.
_INFER_BLOCK = 64


def _encode_tokens(tokens, vocab: Vocabulary) -> np.ndarray:
    surfaces = [t.surface if isinstance(t, SymbolToken) else str(t) for t in tokens]
    return np.asarray([vocab.index[s] for s in surfaces if s in vocab.index], dtype=np.intp)


def infer_vectors(token_lists, table: EmbeddingTable, seeds, steps: int = 50,
                  lr: float = 0.025) -> list[np.ndarray | None]:
    """Vectors for unseen formulae under a trained formula-mode table.

    Formula i gets `steps` PV-DM passes over its in-vocabulary tokens that
    update only its own new vector; word and context rows stay frozen.  Its
    initialization, window widths and negatives are drawn from its own
    np.random.default_rng(seeds[i]), in the order a lone inference draws
    them, so a formula's vector does not depend on the others inferred with
    it (up to the rounding of the batched dot products).  The formulae run
    in lockstep, one position of each per step, so each step's arithmetic is
    a few numpy calls over the whole block.  A formula whose tokens are all
    out of vocabulary gets None; steps=0 returns the seeded initializations.
    """
    if table.config.mode is not Mode.FORMULA2VEC or table.formula_vectors is None:
        raise ValueError("inference needs a table trained in formula2vec mode")
    seqs = [_encode_tokens(tokens, table.vocab) for tokens in token_lists]
    seeds = list(seeds)
    if len(seeds) != len(seqs):
        raise ValueError(f"{len(seqs)} formulae but {len(seeds)} seeds")
    # longest first, so each block's active formulae are a prefix of it
    order = sorted((i for i, seq in enumerate(seqs) if len(seq)), key=lambda i: -len(seqs[i]))
    dim = table.config.dim
    # an all-zero row past the vocabulary pads short windows and dropped negatives
    words = np.vstack((table.input_vectors, np.zeros((1, dim))))
    outputs = np.vstack((table.context_vectors, np.zeros((1, dim))))
    out: list[np.ndarray | None] = [None] * len(seqs)
    for start in range(0, len(order), _INFER_BLOCK):
        block = order[start:start + _INFER_BLOCK]
        vecs = _infer_block([seqs[i] for i in block], [seeds[i] for i in block],
                            table, words, outputs, steps, lr)
        for i, vec in zip(block, vecs):
            out[i] = vec
    return out


def _infer_block(seqs, seeds, table: EmbeddingTable, words, outputs,
                 steps: int, lr: float) -> np.ndarray:
    """Lockstep inference of non-empty sequences sorted by length, longest first."""
    config = table.config
    vocab = table.vocab
    dim, window, k = config.dim, config.window, config.negatives
    rngs = [np.random.default_rng(seed) for seed in seeds]
    vecs = np.stack([rng.uniform(-0.5 / dim, 0.5 / dim, dim) for rng in rngs])
    if steps == 0:
        return vecs

    pad = len(vocab)
    lens = np.array([len(seq) for seq in seqs])
    # sequences padded by a window of pad on each side, so every context
    # index falls inside its row
    padded = np.full((len(seqs), lens[0] + 2 * window), pad, dtype=np.intp)
    for i, seq in enumerate(seqs):
        padded[i, window:window + len(seq)] = seq
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    reach = np.abs(offsets)
    columns = window + offsets
    block_rows = np.arange(len(seqs))
    uniforms = np.empty((len(seqs), k))
    uniform_rows = list(uniforms)       # views, filled in place by each generator
    lr_end = min(lr, config.lr_end)
    n_steps = steps * lens
    totals = np.maximum(1, n_steps - 1)
    active = len(seqs)
    for step in range(int(n_steps[0])):
        while n_steps[active - 1] <= step:
            active -= 1
        rows = block_rows[:active]
        pos = step % lens[:active]
        targets = padded[rows, window + pos]
        widths = np.array([rng.integers(1, window + 1) for rng in rngs[:active]])
        for rng, row in zip(rngs[:active], uniform_rows):
            rng.random(out=row)
        negatives = vocab.quantile(uniforms[:active])
        for i in np.flatnonzero((negatives == targets[:, None]).any(axis=1)):
            kept = _replace_collisions(vocab, rngs[i], negatives[i], int(targets[i]))
            negatives[i] = kept + [pad] * (k - len(kept))

        ctx = padded[rows[:, None], pos[:, None] + columns]
        ctx[reach > widths[:, None]] = pad
        n_members = np.count_nonzero(ctx != pad, axis=1) + 1
        h = (words[ctx].sum(axis=1) + vecs[:active]) / n_members[:, None]
        u = outputs[np.concatenate((targets[:, None], negatives), axis=1)]
        g = _sigmoid(np.einsum("mkd,md->mk", u, h))
        g[:, 0] -= 1.0
        cur_lr = lr - (lr - lr_end) * (step / totals[:active])
        vecs[:active] -= (cur_lr / n_members)[:, None] * np.einsum("mk,mkd->md", g, u)
    return vecs


def infer_vector(tokens, table: EmbeddingTable, steps: int = 50,
                 lr: float = 0.025, seed: int = 0) -> np.ndarray:
    """Vector for one unseen formula: infer_vectors on a batch of one.

    Out-of-vocabulary tokens are skipped; if nothing remains,
    UnknownTokensOnly is raised.  steps=0 returns the seeded random
    initialization.
    """
    vec = infer_vectors([tokens], table, [seed], steps=steps, lr=lr)[0]
    if vec is None:
        raise UnknownTokensOnly("every token is out of vocabulary")
    return vec


# ---------------------------------------------------------------------------
# persistence (word2vec-style text interchange)


def _format_row(label: str, row: np.ndarray) -> str:
    return label + " " + " ".join(f"{x:.6f}" for x in row)


def _write_vector_file(path, labels, matrix, first_lines, meta_comment):
    lines = list(first_lines)
    if meta_comment:
        lines.append(meta_comment)
    lines.append(f"{matrix.shape[0]} {matrix.shape[1]}")
    for label, row in zip(labels, matrix):
        lines.append(_format_row(label, row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_vector_file(path, expect_first=None):
    """Labels and rows of a word2vec-style text file.

    Raises MalformedRecord, naming the file and line, on a bad count line, a
    row whose width differs from the count line, an entry that is not a
    finite number, or fewer rows than the count line promises.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    pos = 0
    if expect_first is not None:
        if not lines or lines[0] != expect_first:
            raise MalformedRecord(f"{path}: expected header {expect_first!r}")
        pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    try:
        n, dim = (int(x) for x in lines[pos].split())
    except (IndexError, ValueError):
        raise MalformedRecord(f"{path}:{pos + 1}: expected a count line 'rows dim'") from None
    if len(lines) - pos - 1 < n:
        raise MalformedRecord(f"{path}: count line promises {n} rows, file has "
                              f"{len(lines) - pos - 1}")
    labels, rows = [], np.empty((n, dim))
    for i in range(n):
        lineno = pos + 2 + i
        parts = lines[lineno - 1].split(" ")
        if len(parts) != dim + 1:
            raise MalformedRecord(f"{path}:{lineno}: {len(parts) - 1} entries, expected {dim}")
        try:
            rows[i] = [float(x) for x in parts[1:]]
        except ValueError:
            raise MalformedRecord(f"{path}:{lineno}: entry is not a number") from None
        labels.append(parts[0])
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise MalformedRecord(f"{path}:{pos + 2 + bad[0]}: entry is not finite")
    return labels, rows


def save_table(table: EmbeddingTable, prefix, meta: dict | None = None) -> None:
    """Write <prefix>.wv.txt / .ctx.txt / .dv.txt / .meta.txt."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    comment = (
        f"# tool=mathemb version={__version__} seed={table.config.seed} "
        f"config={json.dumps(table.config.to_json_dict(), sort_keys=True, separators=(',', ':'))}"
    )
    surfaces = table.vocab.surfaces
    _write_vector_file(f"{prefix}.wv.txt", surfaces, table.input_vectors, [], comment)
    _write_vector_file(f"{prefix}.ctx.txt", surfaces, table.context_vectors, [], comment)
    if table.formula_vectors is not None:
        _write_vector_file(f"{prefix}.dv.txt", table.formula_ids, table.formula_vectors,
                           [DOCVEC_HEADER], comment)
    payload = {
        "tool": "mathemb",
        "version": __version__,
        "seed": table.config.seed,
        "config": table.config.to_json_dict(),
        "vocab_counts": [[s, c] for s, c in zip(table.vocab.surfaces, table.vocab.counts)],
        "sampling_power": table.vocab.power,
        "vocab_fingerprint": table.vocab_fingerprint,
        "has_formula_vectors": table.formula_vectors is not None,
    }
    if meta:
        payload["extra"] = {str(k): str(v) for k, v in sorted(meta.items())}
    with open(f"{prefix}.meta.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(MODEL_HEADER + "\n")
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_table(prefix) -> EmbeddingTable:
    prefix = Path(prefix)
    with open(f"{prefix}.meta.txt", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != MODEL_HEADER:
            raise MalformedRecord(f"{prefix}.meta.txt: expected header {MODEL_HEADER!r}")
        payload = json.loads(fh.readline())
    config = TrainingConfig.from_json_dict(payload["config"])
    vocab = Vocabulary(
        [s for s, _ in payload["vocab_counts"]],
        [int(c) for _, c in payload["vocab_counts"]],
        float(payload["sampling_power"]),
    )
    if vocab.fingerprint() != payload["vocab_fingerprint"]:
        raise MalformedRecord(f"{prefix}.meta.txt: vocabulary fingerprint mismatch")

    wv_labels, input_vectors = _read_vector_file(f"{prefix}.wv.txt")
    if wv_labels != vocab.surfaces:
        raise MalformedRecord(f"{prefix}.wv.txt: surfaces do not match the stored vocabulary")
    ctx_labels, context_vectors = _read_vector_file(f"{prefix}.ctx.txt")
    if ctx_labels != vocab.surfaces or context_vectors.shape != input_vectors.shape:
        raise MalformedRecord(f"{prefix}.ctx.txt: rows do not match {prefix}.wv.txt")

    formula_vectors = None
    formula_ids = None
    if payload.get("has_formula_vectors"):
        formula_ids, formula_vectors = _read_vector_file(f"{prefix}.dv.txt",
                                                         expect_first=DOCVEC_HEADER)
        if formula_vectors.shape[1] != input_vectors.shape[1]:
            raise MalformedRecord(f"{prefix}.dv.txt: dim {formula_vectors.shape[1]} differs "
                                  f"from {prefix}.wv.txt dim {input_vectors.shape[1]}")
    return EmbeddingTable(
        config=config, vocab=vocab,
        input_vectors=input_vectors, context_vectors=context_vectors,
        formula_vectors=formula_vectors, formula_ids=formula_ids,
        vocab_fingerprint=payload["vocab_fingerprint"],
    )
