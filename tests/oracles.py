"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the rule statements, not from
the production code: a character-level scanner for tokenization, flat-loop
metric and page-score computations, and a finite-difference probe for the
training updates.  Tests compare production output against these.
"""

import math
import string
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


# ---------------------------------------------------------------------------
# single-formula inference, one position at a time


def oracle_infer_vector(surfaces, table, steps, lr, seed):
    """PV-DM inference of one formula vector against frozen word and context
    rows, one position per step, drawing from default_rng(seed) in this
    order: the initial vector, then per position the window width in
    [1, window], k uniforms mapped to negatives, and a redraw for each
    negative equal to the target (at most 100, then the negative is dropped).
    The learning rate falls linearly from lr to min(lr, lr_end)."""
    config, vocab = table.config, table.vocab
    seq = [vocab.index[s] for s in surfaces if s in vocab.index]
    rng = np.random.default_rng(seed)
    dim = config.dim
    v = rng.uniform(-0.5 / dim, 0.5 / dim, dim)
    lr_end = min(lr, config.lr_end)
    total = max(1, steps * len(seq) - 1)
    step = 0
    for _ in range(steps):
        for pos, target in enumerate(seq):
            cur_lr = lr - (lr - lr_end) * (step / total)
            step += 1
            b = int(rng.integers(1, config.window + 1))
            ctx = seq[max(0, pos - b):pos] + seq[pos + 1:pos + 1 + b]
            negs = []
            for d in vocab.sample(rng, config.negatives):
                tries = 0
                while d == target and tries < 100:
                    d = vocab.sample(rng, 1)[0]
                    tries += 1
                if d != target:
                    negs.append(int(d))
            h = (sum((table.input_vectors[c] for c in ctx), np.zeros(dim)) + v) / (len(ctx) + 1)
            grad = np.zeros(dim)
            for row, label in [(target, 1.0)] + [(n, 0.0) for n in negs]:
                u = table.context_vectors[row]
                grad += (1.0 / (1.0 + math.exp(-(u @ h))) - label) * u
            v = v - cur_lr / (len(ctx) + 1) * grad
    return v


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
