import io
import json
import shutil
import subprocess
import sys

import pytest

from mathemb.cli import build_parser, main

from conftest import COLLECTION_PATH, QRELS_PATH, QUERIES_PATH, ROOT, TEST_DATA


def stdin_bytes(monkeypatch, data: bytes):
    # a text stdin over bytes, as Python opens it under a C locale, which
    # passes undecodable bytes through as surrogates
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                      errors="surrogateescape"))


def test_tokenize_stdin_stdout(monkeypatch, capsys):
    stdin_bytes(monkeypatch, b"\\sin x + 1\n\\frac{a}{b}\n")
    assert main(["tokenize"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["\\sin x + 1", "\\frac { a } { b }"]


def test_tokenize_error_is_exit_one(monkeypatch, capsys):
    stdin_bytes(monkeypatch, b"x\nbad \\\n")
    assert main(["tokenize"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stdin:2: lone backslash") and err.count("\n") == 1


def test_tokenize_non_utf8_line_is_exit_one(monkeypatch, capsys):
    stdin_bytes(monkeypatch, b"x + 1\nx \xff\n")
    assert main(["tokenize"]) == 1
    out, err = capsys.readouterr()
    assert out == "x + 1\n"
    assert err.startswith("error: stdin:2: ") and "0xff" in err and err.count("\n") == 1


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["search", "--store", "x"]) == 2          # missing required flags
    assert main(["evaluate", "--run"]) == 2               # dangling value
    assert main(["no-such-command"]) == 2


def test_missing_file_exits_one(tmp_path, capsys):
    code = main(["ingest", "--collection", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "out.store")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_training_flags_exit_two(pipeline, tmp_path, capsys):
    code = main(["train-symbol2vec", "--corpus", str(pipeline["train"]),
                 "--out", str(tmp_path / "m"), "--epochs", "0"])
    assert code == 2


@pytest.mark.parametrize("command", ["train-symbol2vec", "train-formula2vec", "sweep"])
@pytest.mark.parametrize("flags,message", [
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--lr-start", "0.001", "--lr-end", "0.01"], "need lr_start >= lr_end > 0"),
    (["--min-count", "0"], "--min-count must be >= 1"),
    (["--lr-start", "inf"], "need lr_start >= lr_end > 0"),
    (["--seed", "-1"], "seed must be >= 0"),
], ids=["epochs-zero", "lr-rising", "min-count-zero", "lr-start-inf", "seed-negative"])
def test_invalid_training_flags_exit_two_before_reading_the_corpus(tmp_path, capsys, command,
                                                                   flags, message):
    missing = str(tmp_path / "missing")
    inputs = {"sweep": ["--axis", "alpha", "--values", "4", "--store", missing,
                        "--queries", missing, "--qrels", missing]}.get(command, [])
    assert main([command, *inputs, "--corpus", missing, "--out", str(tmp_path / "m"),
                 *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["train-symbol2vec", "train-formula2vec", "sweep"])
@pytest.mark.parametrize("flags,message", [
    (["--dim", "0"], "dim must be >= 1"),
    (["--lr-start", "0.001", "--lr-end", "0.01"], "need lr_start >= lr_end > 0"),
], ids=["dim-zero", "lr-rising"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_invalid_training_flags_exit_two_with_dump_config(tmp_path, capsys, command, flags,
                                                          message, via_config):
    # checked at parse time, as every other range rule is: --dump-config prints nothing
    inputs = {"sweep": ["--axis", "alpha", "--values", "4", "--store", "s", "--queries", "q",
                        "--qrels", "r"]}.get(command, [])
    if via_config:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({flag[2:].replace("-", "_"): json.loads(value)
                                        for flag, value in zip(flags[::2], flags[1::2])}))
        flags = ["--config", str(cfg_file)]
    assert main([command, *inputs, "--corpus", "c", "--out", "o", *flags,
                 "--dump-config"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("method,flag", [("lm", "--index"), ("combined", "--index"),
                                         ("formula2vec", "--model")])
def test_search_without_its_method_input_exits_two_before_reading(tmp_path, capsys,
                                                                  method, flag):
    missing = str(tmp_path / "missing")
    assert main(["search", "--store", missing, "--queries", missing, "--method", method,
                 "--out", str(tmp_path / "r.run")]) == 2
    assert capsys.readouterr().err == f"error: {flag} is required for method {method}\n"


@pytest.mark.parametrize("power", ["nan", "inf", "1e308"])
def test_degenerate_sample_power_exits_two(pipeline, tmp_path, capsys, power):
    capsys.readouterr()
    assert main(["train-symbol2vec", "--corpus", str(pipeline["train"]),
                 "--out", str(tmp_path / "m"),
                 "--dim", "4", "--epochs", "1", f"--sample-power={power}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sample" in err and err.count("\n") == 1
    assert not (tmp_path / "m.meta.txt").exists()


def test_query_id_equal_to_a_page_id_ranks_as_under_a_free_id(tmp_path):
    # query formulae are inferred, never served the trained row of a page
    # formula that shares their id
    formulas = {"1": "x + y = z + 1", "2": "a \\cdot b = c - d + e",
                "3": "\\sin x + \\cos y = u"}
    collection = tmp_path / "c.jsonl"
    collection.write_text("".join(json.dumps({"page_id": pid, "formulas": [latex]}) + "\n"
                                  for pid, latex in formulas.items()))
    p = {name: str(tmp_path / name) for name in ("c.store", "t.corpus", "f2v")}
    for argv in (["ingest", "--collection", str(collection), "--out", p["c.store"]],
                 ["filter", "--store", p["c.store"], "--out", p["t.corpus"]],
                 ["train-formula2vec", "--corpus", p["t.corpus"], "--out", p["f2v"],
                  "--dim", "16", "--epochs", "50", "--seed", "3"]):
        assert main(argv) == 0
    ranked = {}
    for qid in ("1", "q"):
        queries = tmp_path / f"{qid}.jsonl"
        queries.write_text(json.dumps({"query_id": qid, "formulas": [formulas["2"]]}) + "\n")
        run = tmp_path / f"{qid}.run"
        assert main(["search", "--store", p["c.store"], "--queries", str(queries),
                     "--method", "formula2vec", "--model", p["f2v"], "--out", str(run)]) == 0
        ranked[qid] = [ln.split()[1:] for ln in run.read_text().splitlines()
                       if not ln.startswith("#")]
    assert ranked["1"] == ranked["q"]
    assert ranked["q"][0][1] == "2"


def test_dump_config_resolves_and_exits(capsys):
    code = main(["search", "--store", "s", "--queries", "q", "--method", "lm",
                 "--out", "r", "--dump-config"])
    assert code == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["method"] == "lm"
    assert cfg["alpha"] == 4.0
    assert cfg["mu"] is None        # search takes the mu stored by index-text
    assert cfg["top"] == 1000


def test_config_file_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 9.5, "mu": 123.0}))
    base = ["search", "--store", "s", "--queries", "q", "--method", "lm", "--out", "r",
            "--config", str(cfg_file), "--dump-config"]
    assert main(base) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["alpha"] == 9.5 and cfg["mu"] == 123.0     # file beats defaults
    assert main(base + ["--alpha", "2"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["alpha"] == 2.0 and cfg["mu"] == 123.0     # flag beats file


def test_config_flag_abbreviation_applies_file(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 9.5}))
    assert main(["search", "--store", "s", "--queries", "q", "--method", "lm", "--out", "r",
                 "--conf", str(cfg_file), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 9.5


def config_flags(tmp_path, extra):
    """--config with a file that sets the flag extra[0] to the string extra[1]."""
    cfg_file = tmp_path / "flag.json"
    cfg_file.write_text(json.dumps({extra[0][2:].replace("-", "_"): extra[1]}))
    return ["--config", str(cfg_file)]


# per subcommand: the required flags, then a few non-default ones
ROUND_TRIP = {
    "tokenize": ([], []),
    "ingest": (["--collection", "c", "--out", "o"], ["--stopwords", "sw"]),
    "filter": (["--store", "s", "--out", "o"], []),
    "train-symbol2vec": (["--corpus", "c", "--out", "o"],
                         ["--dim", "7", "--lr-start", "0.5", "--sample-power", "1"]),
    "train-formula2vec": (["--corpus", "c", "--out", "o"],
                          ["--epochs", "3", "--seed", "2", "--sample-power", "-0.5"]),
    "neighbors": (["--model", "m"], ["--symbol", "\\sin", "--symbol=-x", "--k", "3"]),
    "pca": (["--model", "m"], ["--l2-normalize", "--components", "3"]),
    "index-text": (["--store", "s", "--out", "o"], ["--mu", "5"]),
    "search": (["--store", "s", "--queries", "q", "--method", "combined", "--out", "r"],
               ["--model", "m", "--alpha", "0.25", "--top", "7", "--tag=-t"]),
    "evaluate": (["--run", "r", "--qrels", "q"], ["--ks", "5,10", "--threshold", "2"]),
    "sweep": (["--axis", "alpha", "--values", "0,1e6", "--store", "s", "--corpus", "c",
               "--queries", "q", "--qrels", "qr"], ["--mu", "1e-3", "--window", "2"]),
}


@pytest.mark.parametrize("command", sorted(ROUND_TRIP))
def test_dump_config_round_trips_through_config_file(tmp_path, capsys, command):
    assert sorted(ROUND_TRIP) == sorted(build_parser()[1])
    required, extra = ROUND_TRIP[command]
    assert main([command, *required, *extra, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(dumped)
    assert main([command, *required, "--config", str(cfg_file), "--dump-config"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert again.pop("config") == str(cfg_file)
    assert again == {k: v for k, v in json.loads(dumped).items() if k != "config"}


def test_every_option_has_help():
    _, commands = build_parser()
    for p in commands.values():
        p.format_help()             # adds the flags a subcommand holds until it is used
        assert "--config" in p._option_string_actions
    silent = [f"{name} {a.option_strings[-1]}" for name, p in commands.items()
              for a in p._actions if a.option_strings and not a.help]
    assert silent == []


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the help text was captured with Python 3.11's argparse layout")
def test_help_text_is_unchanged(monkeypatch, capsys):
    # every subcommand's flags are added only when it is used; its --help,
    # and the top-level list of subcommands, read as they always have
    monkeypatch.setenv("COLUMNS", "80")
    shown = []
    for argv in [["--help"]] + [[name, "--help"] for name in build_parser()[1]]:
        assert main(argv) == 0
        shown.append(f"$ mathemb {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(shown) == (TEST_DATA / "cli_help_80.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command,extra", [("neighbors", ["--k", "0"]),
                                           ("pca", ["--components", "0"])])
def test_analysis_counts_below_one_exit_two_before_reading_the_model(tmp_path, capsys, via,
                                                                     command, extra):
    flags = extra if via == "flag" else config_flags(tmp_path, extra)
    assert main([command, "--model", str(tmp_path / "missing"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {extra[0]} must be >= 1\n"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "mathemb" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["mathemb", "mathemb.cli"])
def test_python_dash_m(module):
    done = subprocess.run([sys.executable, "-m", module, "--version"],
                          env={"PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == "mathemb 0.1.0"


class TestPipeline:

    def test_lm_run_is_byte_identical_to_golden_file(self, pipeline):
        # lm ranking reads no vectors, so its run does not depend on the BLAS build
        assert pipeline["run_lm"].read_bytes() == (TEST_DATA / "fixture_lm.run").read_bytes()

    def test_artifacts_exist(self, pipeline):
        for path in pipeline.values():
            if path.suffix or path.name.endswith((".run", ".store", ".corpus",
                                                  ".index", ".tsv")):
                assert path.exists() or path.with_suffix("").exists(), path
        assert (pipeline["sym"].parent / "sym.wv.txt").exists()
        assert (pipeline["f2v"].parent / "f2v.dv.txt").exists()

    def test_store_headers(self, pipeline):
        assert pipeline["store"].read_text().splitlines()[0] == "MATHEMB-CORPUS v1"
        assert pipeline["train"].read_text().splitlines()[0] == "MATHEMB-TRAINCORPUS v1"
        assert pipeline["index"].read_text().splitlines()[0] == "MATHEMB-TEXTINDEX v1"

    def test_artifact_headers_record_provenance(self, pipeline):
        for name in ("neighbors", "pca", "report_lm", "sweep_alpha"):
            first = pipeline[name].read_text().splitlines()[0]
            assert first.startswith("#") and "tool=mathemb" in first and "version=" in first
        # artifacts derived from a trained model carry its seed
        for name in ("neighbors", "pca", "run_formula2vec", "run_combined", "sweep_alpha"):
            first = pipeline[name].read_text().splitlines()[0]
            assert "seed=7" in first, name

    def test_run_files_are_trec_format(self, pipeline):
        for method in ("formula2vec", "lm", "combined"):
            lines = [ln for ln in pipeline[f"run_{method}"].read_text().splitlines()
                     if not ln.startswith("#")]
            assert lines, method
            parts = lines[0].split()
            assert len(parts) == 6 and parts[1] == "Q0" and parts[3] == "1"

    def test_report_has_table_columns(self, pipeline):
        lines = [ln for ln in pipeline["report_combined"].read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0].split("\t") == [
            "query_id", "NDCG@30", "NDCG@50", "P@30", "P@50", "MAP", "MRR"]
        assert lines[-1].startswith("ALL\t")

    def test_sweep_outputs(self, pipeline):
        dim_lines = [ln for ln in pipeline["sweep_dimension"].read_text().splitlines()
                     if not ln.startswith("#")]
        assert dim_lines[0].startswith("dimension\t")
        assert len(dim_lines) == 3   # header + 2 swept values
        alpha_lines = [ln for ln in pipeline["sweep_alpha"].read_text().splitlines()
                       if not ln.startswith("#")]
        assert alpha_lines[1].split("\t")[0] == "0"

    def test_neighbors_tsv(self, pipeline):
        lines = [ln for ln in pipeline["neighbors"].read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "surface\trank\tneighbor\tcosine"
        rank_1 = {row[0]: row for row in (ln.split("\t") for ln in lines[1:]) if row[1] == "1"}
        surface, rank, neighbor, cos = rank_1["\\sin"]
        assert surface == "\\sin" and rank == "1"
        float(cos)

    def test_neighbors_names_an_unknown_symbol(self, pipeline, capsys):
        capsys.readouterr()
        assert main(["neighbors", "--model", str(pipeline["sym"]), "--symbol", "\\nosuch"]) == 1
        assert capsys.readouterr().err == (
            "error: symbol \\nosuch is not in the model's vocabulary\n")

    def test_pca_tsv(self, pipeline):
        lines = [ln for ln in pipeline["pca"].read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "surface\tx\ty"
        _, x, y = lines[1].split("\t")
        float(x), float(y)

    def test_search_refuses_missing_model(self, pipeline, tmp_path):
        code = main(["search", "--store", str(pipeline["store"]),
                     "--queries", str(QUERIES_PATH), "--method", "formula2vec",
                     "--out", str(tmp_path / "r.run")])
        assert code == 2

    def run_lines(self, path):
        return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]

    def search(self, pipeline, out, method, *extra, queries=QUERIES_PATH):
        return main(["search", "--store", str(pipeline["store"]), "--queries", str(queries),
                     "--method", method, "--model", str(pipeline["f2v"]),
                     "--index", str(pipeline["index"]), "--out", str(out), *extra])

    def test_query_id_starting_with_hash_exits_one(self, pipeline, tmp_path, capsys):
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"query_id": "#q1", "keywords": ["triangle"]}) + "\n")
        assert self.search(pipeline, tmp_path / "r.run", "lm", queries=queries) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {queries}:1: query_id must not start with '#'")
        assert err.count("\n") == 1 and not (tmp_path / "r.run").exists()

    def test_every_method_on_an_empty_store_writes_an_empty_run(self, pipeline, tmp_path,
                                                                 capsys):
        # no pages: every method ranks nothing and exits 0, combined included
        collection, store, index = (tmp_path / name for name in ("c.jsonl", "c.store", "t.index"))
        collection.write_text("")
        assert main(["ingest", "--collection", str(collection), "--out", str(store)]) == 0
        assert main(["index-text", "--store", str(store), "--out", str(index)]) == 0
        for method in ("lm", "formula2vec", "combined"):
            out = tmp_path / f"{method}.run"
            capsys.readouterr()
            assert main(["search", "--store", str(store), "--queries", str(QUERIES_PATH),
                         "--method", method, "--model", str(pipeline["f2v"]),
                         "--index", str(index), "--out", str(out)]) == 0, capsys.readouterr().err
            assert self.run_lines(out) == []
        # an alpha sweep ranks with combined too, and scores 0 at every value
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--axis", "alpha", "--values", "0,4", "--store", str(store),
                     "--corpus", str(pipeline["train"]), "--queries", str(QUERIES_PATH),
                     "--qrels", str(QRELS_PATH), "--dim", "8", "--epochs", "1",
                     "--out", str(out)]) == 0, capsys.readouterr().err
        rows = [ln.split("\t") for ln in self.run_lines(out)[1:]]
        assert [row[0] for row in rows] == ["0", "4"]
        assert all(float(value) == 0 for row in rows for value in row[1:])

    def test_search_mu_defaults_to_index_mu(self, pipeline, tmp_path):
        index5 = tmp_path / "mu5.index"
        assert main(["index-text", "--store", str(pipeline["store"]), "--out", str(index5),
                     "--mu", "5"]) == 0
        runs = {}
        for name, extra in (("default", []), ("5", ["--mu", "5"]), ("2000", ["--mu", "2000"])):
            out = tmp_path / f"{name}.run"
            assert main(["search", "--store", str(pipeline["store"]),
                         "--queries", str(QUERIES_PATH), "--method", "lm",
                         "--index", str(index5), "--out", str(out), *extra]) == 0
            runs[name] = self.run_lines(out)
        assert runs["default"] == runs["5"]
        assert runs["default"] != runs["2000"]

    @pytest.mark.parametrize("method", ["formula2vec", "combined"])
    def test_query_without_usable_formulae_does_not_abort(self, pipeline, tmp_path, capsys,
                                                          method):
        # k1 has no formula, k2 only an out-of-vocabulary one
        extra = [{"query_id": "k1", "keywords": ["w1"], "formulas": []},
                 {"query_id": "k2", "keywords": ["integral"], "formulas": ["\\nosuchsymbol"]}]
        queries = tmp_path / "queries.jsonl"
        queries.write_text(QUERIES_PATH.read_text().rstrip("\n") + "\n"
                           + "".join(json.dumps(q) + "\n" for q in extra))
        assert self.search(pipeline, tmp_path / "base.run", method) == 0
        capsys.readouterr()
        assert self.search(pipeline, tmp_path / "k.run", method, queries=queries) == 0
        assert capsys.readouterr().err == (
            "warning: query k1 has no usable formulae\n"
            "warning: query k2 has no usable formulae\n")
        lines = self.run_lines(tmp_path / "k.run")
        assert [ln for ln in lines if ln.split()[0] not in ("k1", "k2")] == \
            self.run_lines(tmp_path / "base.run")
        assert self.search(pipeline, tmp_path / "lm.run", "lm", queries=queries) == 0
        lm = self.run_lines(tmp_path / "lm.run")
        for qid in ("k1", "k2"):
            got = [ln.split()[2] for ln in lines if ln.split()[0] == qid]
            if method == "formula2vec":
                assert got == []
            else:
                assert got == [ln.split()[2] for ln in lm if ln.split()[0] == qid]
                assert len(got) > 1

    @pytest.mark.parametrize("extra,rule", [
        (["--top", "-1"], ">= 1"), (["--top", "0"], ">= 1"), (["--steps", "-3"], ">= 1"),
        (["--mu", "nan"], "finite and > 0"), (["--mu", "inf"], "finite and > 0"),
        (["--mu", "0"], "finite and > 0"), (["--alpha", "nan"], "finite and >= 0"),
        (["--alpha", "inf"], "finite and >= 0"), (["--alpha", "-1"], "finite and >= 0"),
        (["--tag", "my tag"], "non-empty and hold no whitespace"),
        (["--tag", ""], "non-empty and hold no whitespace"),
        (["--steps", "0"], ">= 1"),
    ], ids=["top-negative", "top-zero", "steps-negative", "mu-nan", "mu-inf", "mu-zero",
            "alpha-nan", "alpha-inf", "alpha-negative", "tag-space", "tag-empty", "steps-zero"])
    def test_search_rejects_out_of_range_counts(self, pipeline, tmp_path, capsys, extra, rule):
        out = tmp_path / "r.run"
        for flags in (extra, config_flags(tmp_path, extra)):
            assert self.search(pipeline, out, "lm", *flags) == 2
            assert capsys.readouterr().err == f"error: {extra[0]} must be {rule}\n"
            assert not out.exists()

    @pytest.mark.parametrize("axis,extra,rule", [
        ("alpha", ["--steps", "-1"], ">= 1"), ("alpha", ["--threshold", "0"], ">= 1"),
        ("alpha", ["--values", "0,nan"], "finite and >= 0"),
        ("alpha", ["--values", "inf"], "finite and >= 0"),
        ("alpha", ["--values", "4,-1"], "finite and >= 0"),
        ("alpha", ["--mu", "inf"], "finite and > 0"),
        ("dimension", ["--steps", "-1"], ">= 1"),
        ("dimension", ["--values", "2.5,2"], "integers >= 1"),
        ("dimension", ["--values", "0"], "integers >= 1"),
        ("dimension", ["--values", "8,-8"], "integers >= 1"),
        ("dimension", ["--values", "nan"], "integers >= 1"),
        ("dimension", ["--values", "inf"], "integers >= 1"),
        ("dimension", ["--values", "8,abc"], "integers >= 1"),
        ("alpha", ["--values", "0,abc"], "finite and >= 0"),
        ("alpha", ["--ks", "30,0"], "one or more integers >= 1"),
        ("alpha", ["--ks", "30,abc"], "one or more integers >= 1"),
        ("alpha", ["--steps", "0"], ">= 1"),
    ], ids=["steps-negative", "threshold-zero", "values-nan", "values-inf", "values-negative",
            "mu-inf", "dimension-steps-negative", "dimension-values-fraction",
            "dimension-values-zero", "dimension-values-negative", "dimension-values-nan",
            "dimension-values-inf", "dimension-values-not-a-number", "values-not-a-number",
            "ks-zero", "ks-not-a-number", "steps-zero"])
    def test_sweep_rejects_out_of_range_values(self, pipeline, tmp_path, capsys,
                                               axis, extra, rule):
        out = tmp_path / "sweep.tsv"
        # --values is required, so a config file's --values never wins over
        # the command line's: its cases run from the command line only
        for flags in ([extra] if extra[0] == "--values"
                      else [extra, config_flags(tmp_path, extra)]):
            assert main(["sweep", "--axis", axis, "--values", "0,4" if axis == "alpha" else "8",
                         "--store", str(pipeline["store"]), "--corpus", str(pipeline["train"]),
                         "--queries", str(QUERIES_PATH), "--qrels", str(QRELS_PATH),
                         "--dim", "8", "--epochs", "1", "--out", str(out), *flags]) == 2
            assert capsys.readouterr().err == f"error: {extra[0]} must be {rule}\n"
            assert not out.exists()

    @pytest.mark.parametrize("axis", ["dimension", "alpha"])
    @pytest.mark.parametrize("values", ["", ",", " , "], ids=["empty", "comma", "spaced-comma"])
    def test_sweep_rejects_empty_values_before_any_work(self, tmp_path, capsys, axis, values):
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--axis", axis, "--values", values, "--store", "nope",
                     "--corpus", "nope", "--queries", "nope", "--qrels", "nope",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --values must hold at least one value\n"
        assert not out.exists()

    @pytest.mark.parametrize("via", ["command-line", "config-file"])
    def test_sweep_has_no_alpha_flag(self, tmp_path, capsys, via):
        # the alpha axis sweeps --values and the dimension axis ranks by
        # formulae alone, so a sweep --alpha would change nothing but headers
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": 4}))
        out = tmp_path / "sweep.tsv"
        alpha = ["--alpha", "4"] if via == "command-line" else ["--config", str(cfg_file)]
        assert main(["sweep", "--axis", "alpha", "--values", "0,4", "--store", "nope",
                     "--corpus", "nope", "--queries", "nope", "--qrels", "nope",
                     "--out", str(out), *alpha]) == 2
        err = capsys.readouterr().err
        assert ("unrecognized arguments: --alpha 4" in err if via == "command-line"
                else err == "error: unknown config key 'alpha'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,config,code,message", [
        ("evaluate", {"not_a_flag": 1}, 2, "error: unknown config key 'not_a_flag'"),
        ("evaluate", [1], 2, "error: config file must hold a JSON object"),
        ("index-text", {"mu": None}, 0, ""),
        ("search", {"top": 2.5}, 2, "argument --top: invalid int value: '2.5'"),
        ("search", {"top": [1]}, 2, "error: config key 'top' must be a string or number"),
        ("search", {"method": "bogus"}, 2, "argument --method: invalid choice: 'bogus'"),
        ("pca", {"l2_normalize": "no"}, 2,
         "error: config key 'l2_normalize' must be true or false"),
    ], ids=["unknown-key", "not-object", "mu-null", "top-fraction", "top-list", "method-bogus",
            "l2-normalize-string"])
    def test_config_file_values(self, pipeline, tmp_path, capsys, command, config, code,
                                message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = {
            "evaluate": ["--run", str(pipeline["run_lm"]), "--qrels", str(QRELS_PATH)],
            "index-text": ["--store", str(pipeline["store"])],
            "search": ["--store", str(pipeline["store"]), "--queries", str(QUERIES_PATH),
                       "--method", "lm", "--index", str(pipeline["index"])],
            "pca": ["--model", str(pipeline["sym"])],
        }[command]
        capsys.readouterr()
        assert main([command, *argv, "--out", str(out), "--config", str(cfg_file)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 0:       # null keeps the default mu, so this is the pipeline's index
            assert out.read_bytes() == pipeline["index"].read_bytes()
        else:
            assert message in err.splitlines()[-1]
            assert not out.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "0"])
    def test_index_text_rejects_bad_mu(self, pipeline, tmp_path, capsys, mu):
        out = tmp_path / "t.index"
        for flags in ([f"--mu={mu}"], config_flags(tmp_path, ["--mu", mu])):
            assert main(["index-text", "--store", str(pipeline["store"]), "--out", str(out),
                         *flags]) == 2
            assert capsys.readouterr().err == "error: --mu must be finite and > 0\n"
            assert not out.exists()

    @pytest.mark.parametrize("ks", ["0", "30,0", "-5", ",", "", "30,abc", "1.5"])
    def test_evaluate_rejects_bad_ks(self, pipeline, tmp_path, capsys, ks):
        out = tmp_path / "report.tsv"
        assert main(["evaluate", "--run", str(pipeline["run_lm"]), "--qrels", str(QRELS_PATH),
                     f"--ks={ks}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --ks must be one or more integers >= 1\n"
        assert not out.exists()

    def test_evaluate_rejects_threshold_below_one(self, pipeline, capsys):
        assert main(["evaluate", "--run", str(pipeline["run_lm"]), "--qrels", str(QRELS_PATH),
                     "--threshold", "0"]) == 2
        assert capsys.readouterr().err == "error: --threshold must be >= 1\n"

    def test_evaluate_to_stdout(self, pipeline, capsys):
        assert main(["evaluate", "--run", str(pipeline["run_lm"]),
                     "--qrels", str(QRELS_PATH)]) == 0
        out = capsys.readouterr().out
        assert "NDCG@30" in out and "ALL" in out


class TestCorruptArtifacts:
    """A corrupt artifact ends its command with exit 1 and a path:line diagnostic."""

    @pytest.mark.parametrize("artifact,line_no,text", [
        ("store", 3, '{"kind":"page","page_id":"x"}'),
        ("store", 3, "[1,2]"),
        ("store", 19, '{"id":"Trig_Addition#f0","kind":"formula","surfaces":["x",5]}'),
        ("train", 3, '{"id":"x"}'),
        ("train", 3, '{"id":"x","surfaces":["x",["y"]]}'),
        ("train", 4, '{"id":"x","surfaces":["x",null]}'),
        ("index", 4, '{"length":'),
        ("index", 4, '{"length":1,"page_id":7,"tf":{"a":1}}'),
        ("index", 4, '{"length":1,"page_id":"Trig_Addition","tf":[["a",1]]}'),
        ("f2v_meta", 2, "{not json"),
        ("store", 19, '{"id":"Trig_Addition#f0","kind":"formula","surfaces":"xyz"}'),
        ("store", 3, '{"formula_ids":[],"kind":"page","page_id":"Trig_Addition",'
                     '"text_terms":[1,2,"the"],"title":"t"}'),
        ("store", 3, '{"formula_ids":[["Trig_Addition#f0"]],"kind":"page",'
                     '"page_id":"Trig_Addition","text_terms":["the"],"title":"t"}'),
        ("index", 3, '{"collection_length":371,"mu":1' + "0" * 400 + ',"pages":16}'),
        # (old, new): the line with one field's text replaced
        ("f2v_meta", 2, ('["{",23]', '["{",23.9]')),
        ("f2v_meta", 2, ('["{",23]', '["{",-5]')),
        ("f2v_meta", 2, ('"sampling_power":0.75', '"sampling_power":"0.75"')),
        ("f2v_meta", 2, ('"seed":7,"tool"', '"seed":99,"tool"')),
        ("f2v_meta", 2, ('"negatives":5', '"negatives":2.5')),
        ("f2v_meta", 2, ('"window":5', '"window":2.5')),
        ("f2v_meta", 2, ('"window":5', '"window":true')),
        ("f2v_meta", 2, ('"epochs":10,', '"epochs":2.5,')),
        ("f2v_meta", 2, ('"seed":7,"window"', '"seed":"s","window"')),
        ("f2v_meta", 2, ('"seed":7,"window"', '"seed":2.5,"window"')),
    ], ids=["store-missing-field", "store-not-object", "store-number-surface",
            "corpus-missing-field", "corpus-list-surface", "corpus-null-surface",
            "index-not-json", "index-page-id-number", "index-tf-list", "meta-not-json",
            "store-string-surfaces", "store-number-text-terms", "store-list-formula-id",
            "index-mu-past-float-range", "meta-count-fraction", "meta-count-negative",
            "meta-power-string", "meta-seed-differs", "meta-negatives-fraction",
            "meta-window-fraction", "meta-window-true", "meta-epochs-fraction",
            "meta-config-seed-string", "meta-config-seed-fraction"])
    def test_exit_one_with_path_and_line(self, pipeline, tmp_path, capsys,
                                         artifact, line_no, text):
        work = tmp_path / "pipeline"
        shutil.copytree(pipeline["store"].parent, work)
        paths = {name: work / pipeline[name].name for name in ("store", "train", "index")}
        paths["f2v_meta"] = work / "f2v.meta.txt"
        lines = paths[artifact].read_text().splitlines()
        if isinstance(text, tuple):
            assert lines[line_no - 1].count(text[0]) == 1
            text = lines[line_no - 1].replace(*text)
        lines[line_no - 1] = text
        paths[artifact].write_text("\n".join(lines) + "\n")
        argv = {
            "store": ["filter", "--store", str(paths["store"]),
                      "--out", str(tmp_path / "out.corpus")],
            "train": ["train-symbol2vec", "--corpus", str(paths["train"]),
                      "--out", str(tmp_path / "sym"), "--dim", "4", "--epochs", "1"],
            "index": ["search", "--store", str(paths["store"]), "--queries", str(QUERIES_PATH),
                      "--method", "lm", "--index", str(paths["index"]),
                      "--out", str(tmp_path / "r.run")],
            "f2v_meta": ["neighbors", "--model", str(work / "f2v"), "--symbol", "x"],
        }[artifact]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[artifact]}:{line_no}: "), err
        assert err.count("\n") == 1

    def test_model_width_must_match_its_config(self, pipeline, tmp_path, capsys):
        # every vector file cut to 4 entries a row, the meta still at the trained dim
        model = tmp_path / "f2v"
        meta = pipeline["f2v"].with_name("f2v.meta.txt").read_text()
        (tmp_path / "f2v.meta.txt").write_text(meta)
        for part in ("wv", "ctx", "dv"):
            lines = pipeline["f2v"].with_name(f"f2v.{part}.txt").read_text().splitlines()
            at = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())  # the count line
            lines[at] = f"{lines[at].split()[0]} 4"
            lines[at + 1:] = [" ".join(ln.split(" ")[:5]) for ln in lines[at + 1:]]
            (tmp_path / f"f2v.{part}.txt").write_text("\n".join(lines) + "\n")
        dim = json.loads(meta.splitlines()[1])["config"]["dim"]
        capsys.readouterr()
        for argv in (["search", "--store", str(pipeline["store"]), "--queries", str(QUERIES_PATH),
                      "--method", "formula2vec", "--model", str(model),
                      "--out", str(tmp_path / "r.run")],
                     ["neighbors", "--model", str(model), "--symbol", "x"]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: {model}.wv.txt: dim 4 differs from {model}.meta.txt dim {dim}\n")
        assert not (tmp_path / "r.run").exists()

    @pytest.mark.parametrize("artifact", ["store", "index"])
    def test_search_rejects_a_repeated_page_record(self, pipeline, tmp_path, capsys, artifact):
        # the first page record written again right after itself
        work = tmp_path / "pipeline"
        shutil.copytree(pipeline["store"].parent, work)
        paths = {name: work / pipeline[name].name for name in ("store", "index")}
        lines = paths[artifact].read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if '"page_id":' in ln)
        lines.insert(first + 1, lines[first])
        paths[artifact].write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.run"
        capsys.readouterr()
        assert main(["search", "--store", str(paths["store"]), "--queries", str(QUERIES_PATH),
                     "--method", "lm", "--index", str(paths["index"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[artifact]}:{first + 2}: duplicate page_id "), err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("field,value", [("page_id", "a b"), ("text_terms", "sine")],
                             ids=["page-id-with-space", "text-terms-string"])
    def test_index_text_and_search_reject_a_malformed_page_record(self, pipeline, tmp_path,
                                                                   capsys, field, value):
        store = tmp_path / "c.store"
        lines = pipeline["store"].read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if '"page_id":' in ln)
        record = json.loads(lines[first])
        record[field] = value
        lines[first] = json.dumps(record)
        store.write_text("\n".join(lines) + "\n")
        index, out = tmp_path / "t.index", tmp_path / "r.run"
        capsys.readouterr()
        for argv in (["index-text", "--store", str(store), "--out", str(index)],
                     ["search", "--store", str(store), "--queries", str(QUERIES_PATH),
                      "--method", "lm", "--index", str(pipeline["index"]), "--out", str(out)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {store}:{first + 1}: "), err
            assert err.count("\n") == 1
        assert not index.exists() and not out.exists()

    def test_evaluate_rejects_a_non_finite_run_score(self, pipeline, tmp_path, capsys):
        run, report = tmp_path / "lm.run", tmp_path / "report.tsv"
        lines = pipeline["run_lm"].read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        fields = lines[at].split()
        fields[4] = "nan"
        lines[at] = " ".join(fields)
        run.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--run", str(run), "--qrels", str(QRELS_PATH),
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {run}:{at + 1}: score 'nan' is not finite\n"
        assert not report.exists()

    def test_filter_rejects_a_formula_id_with_whitespace(self, pipeline, tmp_path, capsys):
        # a formula id a model's .dv.txt label could not hold: the store's
        # own line is named, before any model is trained from it
        store, out = tmp_path / "c.store", tmp_path / "out.corpus"
        text = pipeline["store"].read_text().replace('"Trig_Addition#f0"', '"Trig Addition#f0"')
        store.write_text(text)
        at = next(i for i, ln in enumerate(text.splitlines()) if '"id":"Trig Addition#f0"' in ln)
        capsys.readouterr()
        assert main(["filter", "--store", str(store), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {store}:{at + 1}: formula id must be a non-empty string without "
            "whitespace, got 'Trig Addition#f0'\n")
        assert not out.exists()

    def test_search_rejects_a_repeated_formula_record(self, pipeline, tmp_path, capsys):
        # a second record for a formula id, holding other surfaces
        store = tmp_path / "store.txt"
        lines = pipeline["store"].read_text().splitlines()
        lines.append('{"id":"Trig_Addition#f0","kind":"formula","surfaces":["z"]}')
        store.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.run"
        capsys.readouterr()
        assert main(["search", "--store", str(store), "--queries", str(QUERIES_PATH),
                     "--method", "formula2vec", "--model", str(pipeline["f2v"]),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {store}:{len(lines)}: duplicate formula id "
                              "'Trig_Addition#f0'"), err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("reader", ["collection", "stopwords", "run", "qrels", "vectors"])
    def test_non_utf8_line_exits_one_with_path_and_line(self, pipeline, tmp_path, capsys,
                                                        reader):
        # each reader decodes line by line: the bad byte's own line is named,
        # and the lines before it are read as usual
        files = {name: tmp_path / name for name in ("collection", "stopwords", "run", "qrels")}
        for name, source in (("collection", COLLECTION_PATH), ("run", pipeline["run_lm"]),
                             ("qrels", QRELS_PATH)):
            shutil.copy(source, files[name])
        files["stopwords"].write_text("the\na\nof\nand\n")
        model = tmp_path / "sym"
        for part in ("meta", "wv", "ctx"):
            shutil.copy(f"{pipeline['sym']}.{part}.txt", f"{model}.{part}.txt")
        files["vectors"] = tmp_path / "sym.wv.txt"
        lines = files[reader].read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b"\n", b"\xff\n")
        files[reader].write_bytes(b"".join(lines))
        command = {"collection": "ingest", "stopwords": "ingest", "run": "evaluate",
                   "qrels": "evaluate", "vectors": "neighbors"}[reader]
        argv = {
            "ingest": ["ingest", "--collection", str(files["collection"]),
                       "--stopwords", str(files["stopwords"]), "--out", str(tmp_path / "s")],
            "evaluate": ["evaluate", "--run", str(files["run"]), "--qrels", str(files["qrels"])],
            "neighbors": ["neighbors", "--model", str(model)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {files[reader]}:4: byte 0xff is not UTF-8\n"

    def test_search_rejects_index_of_other_pages(self, pipeline, tmp_path, capsys):
        store = tmp_path / "c.store"
        lines = pipeline["store"].read_text().splitlines()
        store.write_text("\n".join(ln for ln in lines if '"page_id":"Plain_History"' not in ln)
                         + "\n")
        out = tmp_path / "r.run"
        capsys.readouterr()
        assert main(["search", "--store", str(store), "--queries", str(QUERIES_PATH),
                     "--method", "combined", "--model", str(pipeline["f2v"]),
                     "--index", str(pipeline["index"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "0 pages only in the store, 1 only in the index" in err
        assert str(pipeline["index"]) in err
        assert not out.exists()

    def test_evaluate_counts_judged_queries_missing_from_run(self, tmp_path, capsys):
        run = tmp_path / "one.run"
        run.write_text("q1 Q0 Trig_Addition 1 0.9 t\n")
        qrels = tmp_path / "two.qrels"
        qrels.write_text("q1 0 Trig_Addition 1\nq2 0 Ocean_Waves 1\n")
        assert main(["evaluate", "--run", str(run), "--qrels", str(qrels)]) == 0
        out, err = capsys.readouterr()
        assert "# queries=2 without_relevant=0 skipped=0 missing=1" in out.splitlines()
        table = [ln.split("\t") for ln in out.splitlines() if not ln.startswith("#")]
        assert dict(zip(table[0], table[-1]))["MAP"] == "0.5000"
        assert "q2" in err
