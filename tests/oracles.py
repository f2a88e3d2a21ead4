"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the rule statements, not from
the production code: a character-level scanner for tokenization, flat-loop
metric, page-score and language-model computations, one-position SGD steps
and inference, and a finite-difference probe for the training updates.
Tests compare production output against these.
"""

import math
import string
from collections import Counter
from importlib import resources

import numpy as np

ASCII_LETTERS = set(string.ascii_letters)
DIGITS = set(string.digits)
ENV_NAME_CHARS = ASCII_LETTERS | DIGITS | {"*"}


# ---------------------------------------------------------------------------
# character-level reference scanner


def reference_tokenize(text):
    """Scan into surfaces by walking characters one at a time."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")  # raises UnicodeDecodeError on bad bytes
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\\":
            if i + 1 >= n or text[i + 1].isspace():
                raise ValueError("lone backslash")
            if text[i + 1] in ASCII_LETTERS:
                j = i + 1
                while j < n and text[j] in ASCII_LETTERS:
                    j += 1
                tok = text[i:j]
                i = j
            else:
                tok = text[i:i + 2]
                i += 2
            out.append(tok)
            if tok in ("\\begin", "\\end"):
                j = i
                while j < n and text[j].isspace():
                    j += 1
                if j < n and text[j] == "{":
                    k = j + 1
                    while k < n and text[k] in ENV_NAME_CHARS:
                        k += 1
                    if k < n and text[k] == "}" and k > j + 1:
                        out.append(text[j:k + 1])
                        i = k + 1
            continue
        out.append(ch)
        i += 1
    return out


def _load_surface_set(fname):
    text = resources.files("mathemb.data").joinpath(fname).read_text(encoding="utf-8")
    return {ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")}

_GREEK = _load_surface_set("greek.txt")
_OPERATORS = _load_surface_set("operators.txt")
_RELATIONS = _load_surface_set("relations.txt")


def reference_passes_filter(text):
    """Recount the corpus filter from scratch on raw text."""
    variables = set()
    operator_occurrences = 0
    for tok in reference_tokenize(text):
        if (len(tok) == 1 and tok in ASCII_LETTERS) or tok in _GREEK:
            variables.add(tok)
        elif tok in _OPERATORS or tok in _RELATIONS:
            operator_occurrences += 1
    return len(variables) >= 2 and operator_occurrences >= 3


# ---------------------------------------------------------------------------
# ranked-retrieval metric oracles (flat, list-of-grades based)


def oracle_dcg(gains):
    return sum(g / math.log2(rank + 1) for rank, g in enumerate(gains, start=1))


def oracle_ndcg(grade_list, all_grades, k):
    """grade_list: grades in ranked order; all_grades: every judged grade."""
    gains = [(2 ** g - 1) for g in grade_list[:k]]
    ideal = sorted(((2 ** g - 1) for g in all_grades), reverse=True)[:k]
    idcg = oracle_dcg(ideal)
    if idcg == 0:
        return 0.0
    return oracle_dcg(gains) / idcg


def oracle_precision(rel_list, k):
    return sum(1 for r in rel_list[:k] if r) / k


def oracle_ap(rel_list, total_relevant):
    if total_relevant == 0:
        return 0.0
    acc = 0.0
    seen = 0
    for rank, rel in enumerate(rel_list, start=1):
        if rel:
            seen += 1
            acc += seen / rank
    return acc / total_relevant


def oracle_rr(rel_list):
    for rank, rel in enumerate(rel_list, start=1):
        if rel:
            return 1.0 / rank
    return 0.0


# ---------------------------------------------------------------------------
# Algorithm oracle: flat double loop over all (query formula, page formula)
# cosine pairs; equals the mean of per-query-formula page means because the
# inner denominator is the same page count for every query formula.


def oracle_cosine(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def oracle_page_score(query_vecs, page_vecs):
    if not page_vecs:
        return -1.0
    total = 0.0
    for qv in query_vecs:
        for pv in page_vecs:
            total += oracle_cosine(qv, pv)
    return total / (len(query_vecs) * len(page_vecs))


def oracle_nearest_neighbors(table, surface, k):
    """One query's neighbors the per-symbol way: every row normalised again
    for this query alone, the query removed before the product, and ties
    broken on the surface strings themselves.  Returns [(surface, cosine)].
    It shares unit_rows with the package, so the batched search must match
    it bit for bit."""
    from mathemb.analysis import unit_rows

    q = table.vector(surface)
    keep = np.any(table.input_vectors, axis=1)
    keep[table.vocab.index[surface]] = False
    candidates = np.flatnonzero(keep)
    cos = np.clip(np.einsum("ij,j->i", unit_rows(table.input_vectors[candidates]),
                            unit_rows(q[np.newaxis])[0]), -1.0, 1.0)
    names = [table.vocab.surfaces[i] for i in candidates]
    top = sorted(range(len(candidates)), key=lambda j: (-cos[j], names[j]))[:k]
    return [(names[j], float(cos[j])) for j in top]


def oracle_lm_score(keywords, page_terms, collection_terms, mu):
    """Dirichlet-smoothed log query likelihood of one page, one keyword at a
    time: page_terms is the page's term list, collection_terms the term list
    of every page.  Keywords absent from the collection add nothing."""
    tf = Counter(page_terms)
    coll_tf = Counter(t for terms in collection_terms for t in terms)
    coll_len = sum(len(terms) for terms in collection_terms)
    score = 0.0
    for w in keywords:
        cf = coll_tf.get(w, 0)
        if cf == 0:
            continue
        p_coll = cf / coll_len
        score += math.log((tf.get(w, 0) + mu * p_coll) / (len(page_terms) + mu))
    return score


# ---------------------------------------------------------------------------
# one SGD step at a time


def oracle_step(input_vectors, context_vectors, doc_vectors, doc_row,
                context_indices, target_index, negative_indices, lr):
    """One CBOW (doc_row None) or PV-DM step applied in place, one position
    at a time; returns the pre-update loss.  h is the mean of the context
    rows and the formula row; the gradient on h is split equally over them."""
    ctx = np.asarray(context_indices, dtype=np.intp)
    n_members = len(ctx) + (1 if doc_row is not None else 0)
    h = input_vectors[ctx].sum(axis=0) if len(ctx) else np.zeros(input_vectors.shape[1])
    if doc_row is not None:
        h = h + doc_vectors[doc_row]
    h /= n_members

    rows = np.asarray([target_index] + list(negative_indices), dtype=np.intp)
    u = context_vectors[rows]
    dots = u @ h
    loss = -math.log(1.0 / (1.0 + math.exp(-dots[0])))
    loss -= sum(math.log(1.0 / (1.0 + math.exp(d))) for d in dots[1:])

    g = np.array([1.0 / (1.0 + math.exp(-d)) for d in dots])
    g[0] -= 1.0                      # dL/d(dots)
    grad_h = g @ u
    np.subtract.at(context_vectors, rows, lr * np.outer(g, h))
    member_grad = (lr / n_members) * grad_h
    if len(ctx):
        np.subtract.at(input_vectors, ctx, member_grad)
    if doc_row is not None:
        doc_vectors[doc_row] -= member_grad
    return loss


# ---------------------------------------------------------------------------
# single-formula inference, one position at a time


def oracle_negatives(vocab, rng, targets, k):
    """k negatives per target: rng.random((n, k)) through the inverse CDF;
    then rounds, at most 100, each redrawing every draw still equal to its
    target with one rng.random call, in row-major order; draws still equal
    after that are dropped.  Returns one list per target."""
    n = len(targets)
    negs = [list(row) for row in vocab.quantile(rng.random((n, k)))]
    for _ in range(100):
        clashes = [(p, j) for p in range(n) for j in range(k) if negs[p][j] == targets[p]]
        if not clashes:
            break
        for (p, j), d in zip(clashes, vocab.quantile(rng.random(len(clashes)))):
            negs[p][j] = d
    return [[int(d) for d in row if d != t] for row, t in zip(negs, targets)]


def oracle_infer_vector(surfaces, table, steps, lr, seed):
    """PV-DM inference of one formula vector against frozen word and context
    rows, one position per step.  default_rng(seed) draws, in this order,
    the initial vector, the window width in [1, window] of every step, and
    the negatives of every step (oracle_negatives).  The learning rate falls
    linearly from lr to min(lr, lr_end)."""
    config, vocab = table.config, table.vocab
    seq = [vocab.index[s] for s in surfaces if s in vocab.index]
    rng = np.random.default_rng(seed)
    dim = config.dim
    v = rng.uniform(-0.5 / dim, 0.5 / dim, dim)
    widths = rng.integers(1, config.window + 1, steps * len(seq))
    all_negs = oracle_negatives(vocab, rng, seq * steps, config.negatives)
    lr_end = min(lr, config.lr_end)
    total = max(1, steps * len(seq) - 1)
    step = 0
    for _ in range(steps):
        for pos, target in enumerate(seq):
            cur_lr = lr - (lr - lr_end) * (step / total)
            b = int(widths[step])
            negs = all_negs[step]
            step += 1
            ctx = seq[max(0, pos - b):pos] + seq[pos + 1:pos + 1 + b]
            h = (sum((table.input_vectors[c] for c in ctx), np.zeros(dim)) + v) / (len(ctx) + 1)
            grad = np.zeros(dim)
            for row, label in [(target, 1.0)] + [(n, 0.0) for n in negs]:
                u = table.context_vectors[row]
                grad += (1.0 / (1.0 + math.exp(-(u @ h))) - label) * u
            v = v - cur_lr / (len(ctx) + 1) * grad
    return v


def oracle_infer_block(seqs, seeds, table, words, outputs, steps, lr):
    """The lockstep inference loop as it stood before the frozen quantities
    left it: a drop-in for embeddings._infer_block that rebuilds each step's
    context with _windows and applies the whole frozen SGD step (context
    mean, sigmoid step, np.add.at into the formula rows), in the operation
    order whose results the production loop must reproduce bit for bit."""
    from mathemb.embeddings import _lay_out, _negatives, _windows

    config = table.config
    dim, window, pad = config.dim, config.window, len(table.vocab)
    lens = np.array([len(seq) for seq in seqs])
    n_steps = steps * lens
    firsts = np.concatenate(([0], np.cumsum(n_steps)[:-1]))
    vecs = np.empty((len(seqs), dim))
    widths = np.empty(n_steps.sum(), dtype=np.intp)
    negatives = np.empty((n_steps.sum(), config.negatives), dtype=np.intp)
    for i, (seq, seed) in enumerate(zip(seqs, seeds)):
        rng = np.random.default_rng(seed)
        mine = slice(firsts[i], firsts[i] + n_steps[i])
        vecs[i] = rng.uniform(-0.5 / dim, 0.5 / dim, dim)
        widths[mine] = rng.integers(1, window + 1, n_steps[i])
        negatives[mine] = _negatives(table.vocab, rng, np.tile(seq, steps), config.negatives, pad)

    flat, starts = _lay_out(seqs, window, pad)
    doc_rows = np.arange(len(seqs))
    lr_end = min(lr, config.lr_end)
    totals = np.maximum(1, n_steps - 1)
    active = len(seqs)
    for step in range(int(n_steps[0])):
        while n_steps[active - 1] <= step:
            active -= 1
        centers = starts[:active] + step % lens[:active]
        at = firsts[:active] + step
        ctx = _windows(flat, centers, widths[at], window, pad)
        cur_lr = lr - (lr - lr_end) * (step / totals[:active])
        n_members = np.count_nonzero(ctx != pad, axis=1) + 1
        h = words[ctx].sum(axis=1)
        h += vecs[doc_rows[:active]]
        h /= n_members[:, None]
        rows = np.concatenate((flat[centers][:, None], negatives[at]), axis=1)
        live = rows != pad
        u = outputs[rows]
        dots = np.einsum("mkd,md->mk", u, h)
        g = np.exp(-np.logaddexp(0.0, -dots))
        g[:, 0] -= 1.0
        g *= live * -np.reshape(cur_lr, (-1, 1))
        np.add.at(vecs, doc_rows[:active], np.einsum("mk,mkd->md", g, u) / n_members[:, None])
    return vecs


def oracle_block_product(table, positions, ids, weights, values):
    """table[ids[e]] += weights[e] * values[positions[e]] for every entry e
    of one block, summed as one product: np.unique finds the block's own
    distinct rows, np.bincount the (positions x distinct rows) coefficient
    matrix, in entry order."""
    ids = np.ravel(ids)
    distinct, local = np.unique(ids, return_inverse=True)
    weights = np.ones(len(ids)) if weights is None else np.ravel(weights)
    coef = np.bincount(np.ravel(positions) * len(distinct) + local, weights,
                       len(values) * len(distinct))
    table[distinct] += coef.reshape(len(values), -1).T @ values


def oracle_train(formulas, vocab, config, with_docs, dense=False):
    """Training as it stood before the draw-only tables left the block loop:
    every block of _BLOCK positions rebuilds its context counts, output rows
    and live mask, applies the SGD update and computes its own loss, and an
    epoch's loss is the mean of the blocks' concatenated losses.  Returns
    (input rows, context rows, formula rows or None, epoch losses).

    The block's output and context-member updates are added row by row with
    np.add.at, the reference that _train must match within rounding, and so
    are the formula rows'.  With dense=True each block sums them with
    oracle_block_product, finding its distinct rows itself, the formula rows
    in the same product as the word rows (stacked after the pad row, as
    _train lays them out), which _train must reproduce bit for bit."""
    from mathemb.embeddings import _BLOCK, _encode, _lay_out, _log_sigmoid, _negatives, _windows

    seqs = [_encode(f.tokens, vocab) for f in formulas]
    rng = np.random.default_rng(config.seed)
    dim, window, pad = config.dim, config.window, len(vocab)
    bound = 0.5 / dim
    words = np.zeros((pad + 1, dim))
    words[:pad] = rng.uniform(-bound, bound, (pad, dim))
    outputs = np.zeros((pad + 1, dim))
    docs = rng.uniform(-bound, bound, (len(seqs), dim)) if with_docs else None

    def block(ctx, doc_rows, targets, negatives, lr):
        in_ctx = ctx != pad
        n_ctx = np.count_nonzero(in_ctx, axis=1)
        n_members = n_ctx if docs is None else n_ctx + 1
        h = words[ctx].sum(axis=1)
        if docs is not None:
            h += docs[doc_rows]
        h /= n_members[:, None]
        rows = np.concatenate((targets[:, None], negatives), axis=1)
        live = rows != pad
        u = outputs[rows]
        dots = np.einsum("mkd,md->mk", u, h)
        g = np.exp(-np.logaddexp(0.0, -dots))
        g[:, 0] -= 1.0
        g *= live * -np.reshape(lr, (-1, 1))
        member_step = np.einsum("mk,mkd->md", g, u) / n_members[:, None]
        sign = np.ones(rows.shape[1])
        sign[1:] = -1.0
        loss = -(_log_sigmoid(sign * dots) * live).sum(axis=1)
        if dense:
            oracle_block_product(outputs, np.repeat(np.arange(len(rows)), rows.shape[1]), rows,
                                 g, h)
            positions, ids = np.repeat(np.arange(len(ctx)), n_ctx), ctx[in_ctx]
            if docs is None:
                oracle_block_product(words, positions, ids, None, member_step)
            else:
                stacked = np.vstack((words, docs))
                oracle_block_product(stacked, np.append(positions, np.arange(len(ctx))),
                                     np.append(ids, pad + 1 + doc_rows), None, member_step)
                words[:], docs[:] = stacked[:pad + 1], stacked[pad + 1:]
        else:
            if docs is not None:
                np.add.at(docs, doc_rows, member_step)
            np.add.at(outputs, rows, g[:, :, None] * h[:, None, :])
            np.add.at(words, ctx[in_ctx], np.repeat(member_step, n_ctx, axis=0))
        return loss

    trainable = [row for row, seq in enumerate(seqs) if len(seq) >= 2]
    lens = [len(seqs[row]) for row in trainable]
    flat, starts = _lay_out([seqs[row] for row in trainable], window, pad)
    offsets = np.concatenate([np.arange(size) for size in lens])
    order = np.argsort(offsets, kind="stable")
    centers = (np.repeat(starts, lens) + offsets)[order]
    doc_rows = np.repeat(trainable, lens)[order]
    targets = flat[centers]
    n = len(centers)
    lr_span, denom = config.lr_start - config.lr_end, max(1, config.epochs * n - 1)
    epoch_losses = []
    for epoch in range(config.epochs):
        lr = config.lr_start - lr_span * ((epoch * n + np.arange(n)) / denom)
        widths = rng.integers(1, window + 1, n)
        negatives = _negatives(vocab, rng, targets, config.negatives, pad)
        ctx = _windows(flat, centers, widths, window, pad)
        losses = [block(ctx[b], doc_rows[b], targets[b], negatives[b], lr[b])
                  for b in (slice(i, i + _BLOCK) for i in range(0, n, _BLOCK))]
        epoch_losses.append(float(np.concatenate(losses).mean()))
    return words[:pad], outputs[:pad], docs, epoch_losses


# ---------------------------------------------------------------------------
# finite differences


def central_difference(fn, arr, i, j, eps=1e-4):
    orig = arr[i, j]
    arr[i, j] = orig + eps
    up = fn()
    arr[i, j] = orig - eps
    down = fn()
    arr[i, j] = orig
    return (up - down) / (2.0 * eps)
