"""mathemb benchmark: drives the program through ``mathemb.cli.main(argv)``.

Usage (from the repository root):

  python3 perfbench/run.py --workload {search-unseen,search-trained}
                           --seed N --seconds S --trace {0,1}

One process runs every command, one after another: a closed loop with a
single client.  A run

  1. generates the workload's inputs from the seed (``gen.py``, in a child
     process so that input generation stays out of the peak-memory figure);
  2. sets up several times, spread over the run: ingest, filter,
     train-formula2vec and index-text, every step the timed commands read
     from;
  3. between the set-ups, repeats whole rounds of train-symbol2vec,
     neighbors (every symbol), pca and one search per method; set-ups and
     rounds together take ``--seconds``;
  4. evaluates the last round's runs, checks every output against the
     benchmark's own computations (``checks.py``) and makes sure each check
     rejects a corrupted copy of its output;
  5. prints one JSON line: correct, attempted and failed commands (a
     command fails when it exits non-zero or raises), and the metrics
     (end-to-end with ``--trace 0``, per layer with ``--trace 1``).

With ``--trace 1`` the rounds alternate between untraced and traced, and
every per-layer figure is that of one traced setup plus one traced round.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One BLAS thread, set before numpy loads: the benchmark times CPU time, and
# OpenBLAS helper threads would add theirs (spinning while they wait) to every
# numpy call large enough to be split.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402

METHODS = ("formula2vec", "lm", "combined")


@dataclass(frozen=True)
class Settings:
    """Program flags per workload; fixed, so every seed runs the same commands."""

    f2v: tuple[str, ...]          # train-formula2vec flags
    s2v: tuple[str, ...]          # train-symbol2vec flags
    steps: int                    # search --steps (inference passes)
    setups: int                   # set-ups per run, spread over it; more when cheap


MU = 1000.0          # passed to both index-text and search
ALPHA = 4.0
K = 10               # neighbours per symbol
COMPONENTS = 2


SETTINGS = {
    "search-unseen": Settings(f2v=("--dim", "50", "--epochs", "10", "--lr-start", "0.2"),
                              s2v=("--dim", "50", "--epochs", "10", "--lr-start", "0.2"),
                              steps=50, setups=20),
    "search-trained": Settings(f2v=("--dim", "50", "--epochs", "5", "--lr-start", "0.2"),
                               s2v=("--dim", "50", "--epochs", "1", "--lr-start", "0.2"),
                               steps=10, setups=7),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "s2v_train_positions_per_s": "positions/s",
    "f2v_train_positions_per_s": "positions/s",
    "analysis_s": "s",
    "f2v_search_queries_per_s": "queries/s",
    "lm_search_queries_per_s": "queries/s",
    "combined_search_queries_per_s": "queries/s",
}


def _epochs(flags) -> int:
    return int(flags[flags.index("--epochs") + 1])


class Bench:
    def __init__(self, workload: str, seed: int, work: pathlib.Path, inputs: pathlib.Path):
        from mathemb.cli import main as mathemb

        self.mathemb = mathemb
        self.settings = SETTINGS[workload]
        self.seed = str(seed)
        self.work = work
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.stdout: dict[str, str] = {}
        truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        self.truth = truth
        self.queries = [json.loads(ln) for ln in
                        (inputs / "queries.jsonl").read_text(encoding="utf-8").splitlines()]
        # positions a training command processes: epochs x in-vocabulary tokens of
        # the trainable formulae (every surface of a passing formula is in the
        # vocabulary; formula mode needs two tokens, symbol mode one).  Both the
        # end-to-end rates and the traced embeddings.train.positions use these.
        lengths = [len(f["surfaces"]) for f in truth["formulas"].values() if f["passes"]]
        self.positions = {
            "train-symbol2vec": _epochs(self.settings.s2v) * sum(lengths),
            "train-formula2vec": _epochs(self.settings.f2v) * sum(n for n in lengths if n >= 2),
        }

    def _path(self, name) -> str:
        return str(self.work / name)

    def run(self, *argv) -> float:
        """One CLI command; returns the CPU time it took, in seconds.

        CPU time, not wall time: on a shared host the hypervisor takes the
        virtual CPU away for seconds at a time, which doubles wall times at
        random.  The commands are single-threaded and wait on no I/O, so on an
        unshared machine their CPU time is their wall time."""
        buf = io.StringIO()
        t0 = time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.mathemb(list(argv))
        except Exception as exc:  # the CLI let an error escape: the command failed
            code = repr(exc)
        dt = time.process_time() - t0
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"command failed ({code}): mathemb {' '.join(argv)}", file=sys.stderr)
        self.stdout[argv[0]] = buf.getvalue()
        return dt

    def setup(self) -> dict[str, float]:
        s, p = self.settings, self._path
        times = {
            "ingest": self.run("ingest", "--collection", str(self.inputs / "collection.jsonl"),
                               "--out", p("c.store")),
            "filter": self.run("filter", "--store", p("c.store"), "--out", p("train.corpus")),
            "train-formula2vec": self.run("train-formula2vec", "--corpus", p("train.corpus"),
                                          "--out", p("f2v"), *s.f2v, "--seed", self.seed),
            "index-text": self.run("index-text", "--store", p("c.store"),
                                   "--out", p("text.index"), "--mu", str(MU)),
        }
        if self.failed:
            raise RuntimeError("set-up failed; nothing to measure")
        return times

    def round(self) -> dict[str, float]:
        s, p = self.settings, self._path
        times = {
            "train-symbol2vec": self.run("train-symbol2vec", "--corpus", p("train.corpus"),
                                         "--out", p("s2v"), *s.s2v, "--seed", self.seed),
            "neighbors": self.run("neighbors", "--model", p("s2v"), "--k", str(K),
                                  "--out", p("neighbors.tsv")),
            "pca": self.run("pca", "--model", p("s2v"), "--components", str(COMPONENTS),
                            "--out", p("pca.tsv")),
        }
        for method in METHODS:
            times[method] = self.run(
                "search", "--store", p("c.store"),
                "--queries", str(self.inputs / "queries.jsonl"), "--method", method,
                "--model", p("f2v"), "--index", p("text.index"), "--steps", str(s.steps),
                "--alpha", str(ALPHA), "--mu", str(MU),
                "--top", str(self.truth["page_count"]), "--out", p(f"{method}.run"))
        return times

    def evaluate(self):
        for method in METHODS:
            self.run("evaluate", "--run", self._path(f"{method}.run"),
                     "--qrels", str(self.inputs / "qrels.txt"),
                     "--out", self._path(f"{method}.report.tsv"))

    def check(self) -> list[str]:
        qrels: dict[str, dict[str, int]] = {}
        for line in (self.inputs / "qrels.txt").read_text(encoding="utf-8").splitlines():
            qid, _, pid, grade = line.split()
            qrels.setdefault(qid, {})[pid] = int(grade)
        ctx = {"truth": self.truth, "queries": self.queries, "qrels": qrels,
               "mu": MU, "alpha": ALPHA, "k": K, "components": COMPONENTS,
               "lm": checks.lm_scores(self.truth, self.queries, MU)}
        try:
            out = checks.load_outputs(self.work, self.stdout, METHODS)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"outputs unreadable: {exc!r}"]
        failures = checks.run_checks(out, ctx)
        if not failures:
            failures = [f"self-test: check {name} accepted a corrupted output"
                        for name in checks.self_test(out, ctx)]
        return failures


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    """Set-ups and whole rounds interleaved over `seconds`: set-up i is due
    once i/n of the time has passed, and rounds fill the time between, so
    that every figure samples the whole run.  A slower machine runs fewer
    rounds rather than a longer run; every set-up runs, and at least one
    round."""
    n_setups = bench.settings.setups
    setups, rounds = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(setups) < n_setups and elapsed >= seconds * len(setups) / n_setups:
            setups.append(bench.setup())
        elif elapsed < seconds or not rounds:
            rounds.append(bench.round())
        else:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each timed figure is the median over the run's samples: the rounds' for
    # the commands they run, the set-ups' for train-formula2vec.  The host's
    # speed drifts between a fast and a slow state; the median stays with the
    # state the run mostly saw, where the fastest sample depends on whether a
    # short fast moment happened to come.
    def rate(work, step, samples=rounds):
        return work / statistics.median(r[step] for r in samples)

    n_queries = len(bench.queries)
    return {
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "peak_rss_mb": peak_rss_mb,
        "s2v_train_positions_per_s": rate(bench.positions["train-symbol2vec"],
                                          "train-symbol2vec"),
        "f2v_train_positions_per_s": rate(bench.positions["train-formula2vec"],
                                          "train-formula2vec", setups),
        "analysis_s": statistics.median(r["neighbors"] + r["pca"] for r in rounds),
        "f2v_search_queries_per_s": rate(n_queries, "formula2vec"),
        "lm_search_queries_per_s": rate(n_queries, "lm"),
        "combined_search_queries_per_s": rate(n_queries, "combined"),
    }


def per_layer(bench: Bench, seconds: float) -> dict[str, tuple[float, str]]:
    from spans import Tracer

    setup_tr, round_tr = Tracer(), Tracer()
    setup_tr.install()
    try:
        bench.setup()
    finally:
        setup_tr.uninstall()

    # untraced and traced rounds alternate, in whole pairs
    cpu = {False: [], True: []}
    t0 = time.perf_counter()
    while not cpu[True] or time.perf_counter() - t0 < seconds:
        for traced in (False, True):
            if traced:
                round_tr.install()
            try:
                cpu[traced].append(sum(bench.round().values()))
            finally:
                round_tr.uninstall()
    n = len(cpu[True])

    def total(name, kind):
        return getattr(setup_tr, kind)(name) + getattr(round_tr, kind)(name) / n

    def p50(name):
        d = setup_tr.stats.get(name), round_tr.stats.get(name)
        durations = [x for st in d if st is not None for x in st.durations]
        return 1000.0 * statistics.median(durations) if durations else 0.0

    infer_calls = round_tr.calls("embeddings.infer_vector") / n
    m = {}
    for name in ("tokenizer.tokenize", "corpus.load_collection", "embeddings.load_table",
                 "embeddings.infer_vector", "analysis.cosine", "retrieval.lm_score"):
        m[f"{name}.calls"] = (total(name, "calls"), "count")
        m[f"{name}.busy_s"] = (total(name, "busy"), "s")
    for name in ("corpus.ingest_pages", "corpus.save_collection",
                 "embeddings.train_symbol2vec", "embeddings.train_formula2vec",
                 "embeddings.save_table", "analysis.nearest_neighbors", "analysis.pca_project",
                 "retrieval.TextIndex.load", "retrieval.write_run"):
        m[f"{name}.busy_s"] = (total(name, "busy"), "s")
    m["corpus.filter_corpus.kept"] = (setup_tr.values["corpus.filter_corpus.kept"], "count")
    m["corpus.build_vocabulary.size"] = (setup_tr.values["corpus.build_vocabulary.size"],
                                         "count")
    m["embeddings.train.positions"] = (
        sum(total(f"embeddings.{cmd.replace('-', '_')}", "calls") * n_pos
            for cmd, n_pos in bench.positions.items()), "count")
    m["embeddings.infer_vector.ms_p50"] = (p50("embeddings.infer_vector"), "ms")
    m["retrieval.infer_per_distinct_formula"] = (
        infer_calls / len(round_tr.inferred) if round_tr.inferred else 0.0, "ratio")
    m["retrieval.vector_for.calls"] = (total("retrieval.vector_for", "calls"), "count")
    m["retrieval.formula_page_score.calls"] = (total("retrieval.formula_page_score", "calls"),
                                               "count")
    m["retrieval.formula_page_score.self_s"] = (total("retrieval.formula_page_score", "self_time"),
                                                "s")
    for method in METHODS:
        m[f"retrieval.rank_pages.{method}.ms_p50"] = (p50(f"retrieval.rank_pages.{method}"), "ms")
    m["trace.overhead_s"] = (statistics.median(cpu[True]) - statistics.median(cpu[False]), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETTINGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mathemb" / "cli.py").is_file():
        print(f"error: no mathemb sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    inputs = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(inputs)], check=True, timeout=120)

    bench = Bench(args.workload, args.seed, work, inputs)
    if args.trace:
        metrics = per_layer(bench, args.seconds)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(bench, args.seconds).items()}
    bench.evaluate()
    failures = bench.check()
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    if failures:
        print(f"outputs kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
