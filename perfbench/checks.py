"""Output checks for the mathemb benchmark, computed apart from the program.

Every check reads the generated inputs (``truth.json``, the queries and
qrels) and the files the program wrote, recomputes what the files should
hold with its own code (numpy, plain Python), and raises ``CheckFailed`` on
the first disagreement.  None of them compares against a stored copy of
earlier output.

``CORRUPTIONS`` pairs each check with a deliberate corruption of the
outputs it reads (two swapped ranks, one perturbed score, one dropped
neighbour, ...).  ``self_test`` applies each corruption to a copy of real
outputs and requires its check to reject it, which shows that no check
passes whatever the output is.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from collections import Counter

import numpy as np

# Written scores and cosines carry 6 decimals, reports 4.
RUN_ROUND = 5e-7
REPORT_ROUND = 5e-5
SLACK = 1e-9
# The formula2vec and combined MAP must beat a random ordering's expected MAP
# by at least this much; the method ranks a topic's pages by the shared
# symbols of its formulae, so it must do clearly better than chance.
MAP_MARGIN = 0.15
# A principal component is compared entry by entry only when its eigenvalue
# is at least this share above the next one.  Closer eigenvalues leave the
# program's power iteration (at most 1000 steps) unconverged, and eigh's
# vector itself is then ill-conditioned; the component's variance is still
# compared.
PCA_MIN_GAP = 0.02

_HEADER_RE = re.compile(r"^(pages|formulas|kept|dropped)=(\d+)$")


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# reading the program's files


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]


def read_vectors(path):
    """word2vec text layout: optional header lines, ``n dim``, labelled rows."""
    lines = _data_lines(path)
    if lines and lines[0].startswith("MATHEMB-"):
        lines = lines[1:]
    n, dim = (int(x) for x in lines[0].split())
    labels, rows = [], np.empty((n, dim))
    for i, line in enumerate(lines[1:1 + n]):
        parts = line.split(" ")
        labels.append(parts[0])
        rows[i] = [float(x) for x in parts[1:]]
    return labels, rows


def read_run(path):
    """{query_id: [(page_id, rank, score_text)]} in file order."""
    run: dict[str, list] = {}
    for line in _data_lines(path):
        qid, _q0, pid, rank, score, _tag = line.split()
        run.setdefault(qid, []).append((pid, int(rank), score))
    return run


def read_report(path):
    """evaluate TSV -> ({row id: {metric: value}}, header counts)."""
    counts = {}
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    for ln in lines:
        if ln.startswith("# queries="):
            counts = dict(kv.split("=") for kv in ln[2:].split())
    rows = [ln.split("\t") for ln in lines if not ln.startswith("#")]
    names = rows[0][1:]
    return {r[0]: dict(zip(names, (float(x) for x in r[1:]))) for r in rows[1:]}, counts


def _stdout_counts(text):
    out = {}
    for field in text.split():
        m = _HEADER_RE.match(field)
        if m:
            out[m.group(1)] = int(m.group(2))
    return out


def load_outputs(work: pathlib.Path, stdout: dict[str, str], methods) -> dict:
    """Parse everything the checks read into one plain structure."""
    store_pages, store_formulas = [], {}
    for line in _data_lines(work / "c.store")[1:]:
        rec = json.loads(line)
        if rec["kind"] == "page":
            store_pages.append(rec)
        else:
            store_formulas[rec["id"]] = rec["surfaces"]
    train = [json.loads(ln) for ln in _data_lines(work / "train.corpus")[1:]]
    index_lines = [json.loads(ln) for ln in _data_lines(work / "text.index")[1:]]
    models = {}
    for name in ("s2v", "f2v"):
        with open(work / f"{name}.meta.txt", encoding="utf-8") as fh:
            fh.readline()
            meta = json.loads(fh.readline())
        labels, matrix = read_vectors(work / f"{name}.wv.txt")
        models[name] = {"vocab_counts": [tuple(sc) for sc in meta["vocab_counts"]],
                        "labels": labels, "matrix": matrix}
    neighbors: dict[str, list] = {}
    for line in _data_lines(work / "neighbors.tsv")[1:]:
        s, rank, other, cos = line.split("\t")
        neighbors.setdefault(s, []).append((int(rank), other, cos))
    pca = {}
    for line in _data_lines(work / "pca.tsv")[1:]:
        s, *coords = line.split("\t")
        pca[s] = [float(c) for c in coords]
    return {
        "ingest": _stdout_counts(stdout["ingest"]),
        "filter": _stdout_counts(stdout["filter"]),
        "store_pages": store_pages,
        "store_formulas": store_formulas,
        "train_ids": [r["id"] for r in train],
        "index_stats": index_lines[0],
        "index_pages": {r["page_id"]: (r["length"], r["tf"]) for r in index_lines[1:]},
        "models": models,
        "neighbors": neighbors,
        "pca": pca,
        "runs": {m: read_run(work / f"{m}.run") for m in methods},
        "reports": {m: read_report(work / f"{m}.report.tsv") for m in methods},
    }


# ---------------------------------------------------------------------------
# the benchmark's own computations


def _terms(text):
    """Text normalised as documented: lowercase [a-z0-9]+ runs."""
    return re.findall(r"[a-z0-9]+", text.lower())


def page_terms(truth):
    return {p["page_id"]: _terms(p["text"]) for p in truth["pages"]}


def dirichlet(keywords, tf: Counter, length: int, coll_tf: Counter, coll_len: int, mu: float):
    score = 0.0
    for w in keywords:
        cf = coll_tf.get(w, 0)
        if cf:
            score += math.log((tf.get(w, 0) + mu * cf / coll_len) / (length + mu))
    return score


def lm_scores(truth, queries, mu):
    """{qid: {pid: Dirichlet log query likelihood}}."""
    terms = page_terms(truth)
    tfs = {pid: Counter(t) for pid, t in terms.items()}
    coll_tf = sum(tfs.values(), Counter())
    coll_len = sum(len(t) for t in terms.values())
    return {q["query_id"]: {pid: dirichlet(_keywords(q), tfs[pid], len(terms[pid]),
                                           coll_tf, coll_len, mu) for pid in terms}
            for q in queries}


def _keywords(query):
    return [w for kw in query["keywords"] for w in _terms(kw)]


def _minmax(raw: dict) -> dict:
    lo, hi = min(raw.values()), max(raw.values())
    if hi == lo:
        return {k: 0.0 for k in raw}
    return {k: (v - lo) / (hi - lo) for k, v in raw.items()}


def ir_metrics(ranked, grades: dict, ks=(30, 50)):
    """NDCG@k (gain 2^g - 1, log2(i+1) discount), P@k, AP and RR at grade >= 1."""
    out = {}
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    for k in ks:
        dcg = sum((2.0 ** grades.get(p, 0) - 1) / math.log2(i + 2)
                  for i, p in enumerate(ranked[:k]))
        idcg = sum((2.0 ** g - 1) / math.log2(i + 2) for i, g in enumerate(ideal[:k]))
        out[f"NDCG@{k}"] = dcg / idcg if idcg else 0.0
        out[f"P@{k}"] = sum(1 for p in ranked[:k] if grades.get(p, 0) >= 1) / k
    relevant = {p for p, g in grades.items() if g >= 1}
    hits, ap, rr = 0, 0.0, 0.0
    for i, p in enumerate(ranked, start=1):
        if p in relevant:
            hits += 1
            ap += hits / i
            rr = rr or 1.0 / i
    out["MAP"] = ap / len(relevant) if relevant else 0.0
    out["MRR"] = rr
    return out


def random_map(n_pages: int, n_relevant: int) -> float:
    """Expected average precision of a uniformly random ordering.

    A relevant page sits at rank r with probability 1/N, and each of the
    other R-1 relevant pages precedes it with probability (r-1)/(N-1).
    """
    h = sum(1.0 / r for r in range(1, n_pages + 1))
    return (h + (n_relevant - 1) * (n_pages - h) / (n_pages - 1)) / n_pages


def _sorted_run(entries):
    """A run's pages ordered as the evaluation documents: score desc, page id."""
    return [pid for pid, _, s in sorted(entries, key=lambda e: (-float(e[2]), e[0]))]


# ---------------------------------------------------------------------------
# checks; each takes (outputs, ctx) and raises CheckFailed


def check_counts(out, ctx):
    truth = ctx["truth"]
    _require(out["ingest"].get("pages") == truth["page_count"]
             and out["ingest"].get("formulas") == truth["formula_count"],
             f"ingest reported {out['ingest']}, generated {truth['page_count']} pages "
             f"and {truth['formula_count']} formulae")
    passing = [fid for fid, f in truth["formulas"].items() if f["passes"]]
    _require(out["filter"].get("kept") == len(passing)
             and out["filter"].get("dropped") == truth["formula_count"] - len(passing),
             f"filter reported {out['filter']}, generated {len(passing)} passing formulae")
    _require(len(out["store_pages"]) == truth["page_count"]
             and len(out["store_formulas"]) == truth["formula_count"],
             "collection store record counts differ from the generated collection")
    for fid, f in truth["formulas"].items():
        _require(out["store_formulas"].get(fid) == f["surfaces"],
                 f"store tokens of {fid} differ from the generated surfaces")
    _require(sorted(out["train_ids"]) == sorted(passing),
             "training corpus ids differ from the formulae built to pass the filter")


def check_vocabulary(out, ctx):
    counts = Counter(s for f in ctx["truth"]["formulas"].values() if f["passes"]
                     for s in f["surfaces"])
    expected = sorted(counts.items(), key=lambda sc: (-sc[1], sc[0]))
    for name, model in out["models"].items():
        _require(model["vocab_counts"] == expected,
                 f"{name} vocabulary differs from a surface count of the training corpus")
        _require(model["labels"] == [s for s, _ in expected],
                 f"{name}.wv.txt rows differ from the vocabulary order")


def check_text_index(out, ctx):
    terms = page_terms(ctx["truth"])
    _require(out["index_stats"]["collection_length"] == sum(len(t) for t in terms.values()),
             "text.index collection_length differs from a recount")
    _require(out["index_stats"]["mu"] == ctx["mu"], "text.index mu differs from --mu")
    _require(set(out["index_pages"]) == set(terms), "text.index page set differs")
    for pid, t in terms.items():
        length, tf = out["index_pages"][pid]
        _require(length == len(t) and tf == dict(Counter(t)),
                 f"text.index term counts of {pid} differ from a recount")


def _full_runs(out, ctx):
    pages = {p["page_id"] for p in ctx["truth"]["pages"]}
    qids = [q["query_id"] for q in ctx["queries"]]
    for method, run in out["runs"].items():
        _require(sorted(run) == sorted(qids), f"{method} run covers other queries")
        for qid, entries in run.items():
            _require(sorted(pid for pid, _, _ in entries) == sorted(pages),
                     f"{method} run of {qid} does not rank every page once")


def check_lm_scores(out, ctx):
    _full_runs(out, ctx)
    own = ctx["lm"]
    for qid, entries in out["runs"]["lm"].items():
        for pid, _, score in entries:
            _require(abs(float(score) - own[qid][pid]) <= RUN_ROUND + SLACK,
                     f"lm score of ({qid}, {pid}) is {score}, Dirichlet gives {own[qid][pid]!r}")


def check_combined(out, ctx):
    _full_runs(out, ctx)
    alpha = ctx["alpha"]
    for qid, entries in out["runs"]["combined"].items():
        raw_f = {pid: float(s) for pid, _, s in out["runs"]["formula2vec"][qid]}
        raw_t = {pid: float(s) for pid, _, s in out["runs"]["lm"][qid]}
        f_hat, t_hat = _minmax(raw_f), _minmax(raw_t)
        # each input score, the minimum and the maximum are rounded to 6
        # decimals, so a normalised score can be off by 4 roundings / span
        spans = [max(r.values()) - min(r.values()) for r in (raw_f, raw_t)]
        err = [4 * RUN_ROUND / s if s else 0.0 for s in spans]
        tol = (err[0] + alpha * err[1]) / (1 + alpha) + RUN_ROUND + SLACK
        for pid, _, score in entries:
            want = (f_hat[pid] + alpha * t_hat[pid]) / (1 + alpha)
            _require(abs(float(score) - want) <= tol,
                     f"combined score of ({qid}, {pid}) is {score}, (F+aT)/(1+a) gives {want!r}")


def check_formula_floor(out, ctx):
    free = {p["page_id"] for p in ctx["truth"]["pages"] if not p["formula_ids"]}
    for qid, entries in out["runs"]["formula2vec"].items():
        for pid, _, score in entries:
            if pid in free:
                _require(score == "-1.000000", f"formula-free page {pid} scored {score} for {qid}")
            else:
                _require(-1.0 <= float(score) <= 1.0,
                         f"formula2vec score {score} of ({qid}, {pid}) is outside [-1, 1]")


def _tie_keys(ctx):
    """Per method, a key that is equal for two pages exactly when the method
    must compute bit-identical scores for them.  Only such exact ties have a
    defined order (page id); two scores that print alike but are computed
    from different inputs may legitimately come in either order."""
    truth, formulas = ctx["truth"], ctx["truth"]["formulas"]
    terms = {pid: Counter(t) for pid, t in page_terms(truth).items()}
    f_key, t_key = {}, {}
    for p in truth["pages"]:
        pid, fids = p["page_id"], p["formula_ids"]
        if not fids:
            f_key[pid] = ("free",)
        elif not any(formulas[f]["passes"] for f in fids):
            # inferred vectors are seeded by content, so equal content in the
            # same order gives the same score
            f_key[pid] = tuple(" ".join(formulas[f]["surfaces"]) for f in fids)
        else:
            f_key[pid] = ("trained", pid)
    keys = {}
    for q in ctx["queries"]:
        kws = _keywords(q)
        for p in truth["pages"]:
            pid = p["page_id"]
            t_key[pid] = (sum(terms[pid].values()), tuple(terms[pid][w] for w in kws))
        keys[q["query_id"]] = {
            "formula2vec": dict(f_key),
            "lm": dict(t_key),
            "combined": {pid: (f_key[pid], t_key[pid]) for pid in f_key},
        }
    return keys


def check_run_order(out, ctx):
    keys = _tie_keys(ctx)
    for method, run in out["runs"].items():
        for qid, entries in run.items():
            _require([r for _, r, _ in entries] == list(range(1, len(entries) + 1)),
                     f"{method} run of {qid}: ranks are not 1..n")
            scores = [float(s) for _, _, s in entries]
            _require(all(a >= b for a, b in zip(scores, scores[1:])),
                     f"{method} run of {qid} is not sorted by score descending")
            key = keys[qid][method]
            last_by_key = {}
            for pid, _, _ in entries:
                prev = last_by_key.get(key[pid])
                _require(prev is None or prev < pid,
                         f"{method} run of {qid}: tied pages {prev} and {pid} out of id order")
                last_by_key[key[pid]] = pid


def check_neighbors(out, ctx):
    model = out["models"]["s2v"]
    labels, x = model["labels"], model["matrix"]
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    cos = unit @ unit.T
    k = ctx["k"]
    row_of = {s: i for i, s in enumerate(labels)}
    _require(sorted(out["neighbors"]) == sorted(labels), "neighbors.tsv misses symbols")
    for i, s in enumerate(labels):
        rows = out["neighbors"][s]
        _require([r for r, _, _ in rows] == list(range(1, min(k, len(labels) - 1) + 1)),
                 f"neighbors of {s!r}: ranks are not 1..k")
        order = sorted((j for j in range(len(labels)) if j != i),
                       key=lambda j: (-cos[i, j], labels[j]))
        for (_, other, value), j in zip(rows, order):
            got = row_of[other]
            # a different neighbour at this rank is allowed only for a tie
            _require(got == j or abs(cos[i, got] - cos[i, j]) <= 1e-12,
                     f"neighbor {other!r} of {s!r} is out of cosine order")
            _require(abs(float(value) - cos[i, got]) <= RUN_ROUND + 1e-12,
                     f"cosine of ({s!r}, {other!r}) is {value}, numpy gives {cos[i, got]!r}")


def check_pca(out, ctx):
    model = out["models"]["s2v"]
    x = model["matrix"]
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    values, vectors = values[order], vectors[:, order]
    got = np.array([out["pca"][s] for s in model["labels"]])
    _require(got.shape == (len(x), ctx["components"]), "pca.tsv has the wrong shape")
    for c in range(ctx["components"]):
        v = vectors[:, c]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        want = centered @ v
        # the written coordinates carry the variance of their component
        var = float(got[:, c] @ got[:, c]) / (len(x) - 1)
        _require(abs(var - values[c]) <= 1e-4 * values[0] + 1e-9,
                 f"pca component {c + 1} carries variance {var!r}, eigh gives {values[c]!r}")
        if (values[c] - values[c + 1]) >= PCA_MIN_GAP * values[c]:
            err = float(np.abs(got[:, c] - want).max())
            _require(err <= 1e-5, f"pca coordinate {c + 1} differs from eigh by {err!r}")


def check_evaluate(out, ctx):
    for method, (rows, counts) in out["reports"].items():
        run = out["runs"][method]
        own = {qid: ir_metrics(_sorted_run(entries), ctx["qrels"][qid])
               for qid, entries in run.items()}
        _require(int(counts.get("queries", -1)) == len(own),
                 f"{method} report counts {counts.get('queries')} queries, not {len(own)}")
        names = list(next(iter(own.values())))
        means = {m: sum(v[m] for v in own.values()) / len(own) for m in names}
        for qid, metrics in list(own.items()) + [("ALL", means)]:
            _require(qid in rows, f"{method} report misses {qid}")
            for m, value in metrics.items():
                _require(abs(rows[qid][m] - value) <= REPORT_ROUND + SLACK,
                         f"{method} report {qid} {m}={rows[qid][m]}, own value {value!r}")


def check_map_margin(out, ctx):
    n_pages = ctx["truth"]["page_count"]
    for method in ("formula2vec", "combined"):
        run = out["runs"][method]
        maps = [ir_metrics(_sorted_run(run[qid]), ctx["qrels"][qid])["MAP"] for qid in run]
        rand = [random_map(n_pages, len(ctx["qrels"][qid])) for qid in run]
        got, base = sum(maps) / len(maps), sum(rand) / len(rand)
        _require(got >= base + MAP_MARGIN,
                 f"{method} MAP {got:.4f} does not beat random ordering {base:.4f} by {MAP_MARGIN}")


CHECKS = {
    "counts": check_counts,
    "vocabulary": check_vocabulary,
    "text_index": check_text_index,
    "lm_scores": check_lm_scores,
    "combined": check_combined,
    "formula_floor": check_formula_floor,
    "run_order": check_run_order,
    "neighbors": check_neighbors,
    "pca": check_pca,
    "evaluate": check_evaluate,
    "map_margin": check_map_margin,
}


# ---------------------------------------------------------------------------
# self-test: each corruption must be rejected by its check.  A corruption
# returns a corrupted copy of the outputs, copying only what it changes.


def _with(out, key, value):
    bad = dict(out)
    bad[key] = value
    return bad


def _with_run(out, method):
    runs = dict(out["runs"])
    runs[method] = {qid: list(entries) for qid, entries in runs[method].items()}
    return _with(out, "runs", runs), runs[method][sorted(runs[method])[0]]


def _bump_kept(out, ctx):
    return _with(out, "filter", dict(out["filter"], kept=out["filter"]["kept"] + 1))


def _drop_vocab_entry(out, ctx):
    models = dict(out["models"])
    models["f2v"] = dict(models["f2v"], vocab_counts=models["f2v"]["vocab_counts"][:-1])
    return _with(out, "models", models)


def _bump_term_count(out, ctx):
    pages = dict(out["index_pages"])
    pid = sorted(pages)[0]
    length, tf = pages[pid]
    term = sorted(tf)[0]
    pages[pid] = (length, dict(tf, **{term: tf[term] + 1}))
    return _with(out, "index_pages", pages)


def _perturb(method):
    def corrupt(out, ctx):
        bad, entries = _with_run(out, method)
        pid, rank, score = entries[-1]
        entries[-1] = (pid, rank, f"{float(score) - 1e-3:.6f}")
        return bad
    return corrupt


def _lift_formula_free(out, ctx):
    free = {p["page_id"] for p in ctx["truth"]["pages"] if not p["formula_ids"]}
    bad, entries = _with_run(out, "formula2vec")
    i = next(i for i, e in enumerate(entries) if e[0] in free)
    entries[i] = (entries[i][0], entries[i][1], "-0.999000")
    return bad


def _swap_ranks(out, ctx):
    bad, entries = _with_run(out, "combined")
    i = next(i for i in range(len(entries) - 1) if entries[i][2] != entries[i + 1][2])
    (a, ra, sa), (b, rb, sb) = entries[i], entries[i + 1]
    entries[i], entries[i + 1] = (b, ra, sb), (a, rb, sa)
    return bad


def _drop_neighbor(out, ctx):
    neighbors = dict(out["neighbors"])
    s = sorted(neighbors)[0]
    neighbors[s] = neighbors[s][:1] + neighbors[s][2:]
    return _with(out, "neighbors", neighbors)


def _flip_pca_sign(out, ctx):
    return _with(out, "pca", {s: [-c[0]] + c[1:] for s, c in out["pca"].items()})


def _bump_report(out, ctx):
    reports = dict(out["reports"])
    rows, counts = reports["formula2vec"]
    rows = dict(rows, ALL=dict(rows["ALL"], MAP=rows["ALL"]["MAP"] + 0.01))
    reports["formula2vec"] = (rows, counts)
    return _with(out, "reports", reports)


def _reverse_rankings(out, ctx):
    runs = dict(out["runs"])
    for method in ("formula2vec", "combined"):
        # the written order, reversed: rank 1 gets the lowest score
        runs[method] = {qid: [(pid, rank, f"{rank:.6f}") for pid, rank, _ in entries]
                        for qid, entries in runs[method].items()}
    return _with(out, "runs", runs)


CORRUPTIONS = {
    "counts": _bump_kept,
    "vocabulary": _drop_vocab_entry,
    "text_index": _bump_term_count,
    "lm_scores": _perturb("lm"),
    "combined": _perturb("combined"),
    "formula_floor": _lift_formula_free,
    "run_order": _swap_ranks,
    "neighbors": _drop_neighbor,
    "pca": _flip_pca_sign,
    "evaluate": _bump_report,
    "map_margin": _reverse_rankings,
}


# A wrong output can also break a check's lookups (an unknown page id, a
# missing symbol or metric); that is the check's failure too.
REJECTED = (CheckFailed, KeyError, IndexError, ValueError)


def run_checks(out, ctx) -> list[str]:
    """Every check on the real outputs; returns the failures as messages."""
    failures = []
    for name, check in CHECKS.items():
        try:
            check(out, ctx)
        except REJECTED as exc:
            failures.append(f"{name}: {exc!r}")
    return failures


def self_test(out, ctx) -> list[str]:
    """Names of the checks that accepted their corrupted output."""
    missed = []
    for name, corrupt in CORRUPTIONS.items():
        try:
            CHECKS[name](corrupt(out, ctx), ctx)
        except REJECTED:
            continue
        missed.append(name)
    return missed
