import io
import json
import subprocess
import sys

import pytest

from mathemb.cli import main

from conftest import COLLECTION_PATH, QRELS_PATH, QUERIES_PATH, ROOT, run_full_pipeline


def test_tokenize_stdin_stdout(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("\\sin x + 1\n\\frac{a}{b}\n"))
    assert main(["tokenize"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["\\sin x + 1", "\\frac { a } { b }"]


def test_tokenize_error_is_exit_one(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("bad \\\n"))
    assert main(["tokenize"]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_invalid_training_flags_exit_two(tmp_path, capsys):
    store = tmp_path / "s.store"
    train = tmp_path / "t.corpus"
    assert main(["ingest", "--collection", str(COLLECTION_PATH), "--out", str(store)]) == 0
    assert main(["filter", "--store", str(store), "--out", str(train)]) == 0
    code = main(["train-symbol2vec", "--corpus", str(train),
                 "--out", str(tmp_path / "m"), "--epochs", "0"])
    assert code == 2


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


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"not_a_flag": 1}))
    assert main(["evaluate", "--run", "r", "--qrels", "q",
                 "--config", str(cfg_file)]) == 2


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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    return run_full_pipeline(out, f2v_dim=32, f2v_epochs=10,
                             sweep_dims="8,16", sweep_alphas="0,4")


class TestPipeline:

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
        surface, rank, neighbor, cos = lines[1].split("\t")
        assert surface == "\\sin" and rank == "1"
        float(cos)

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

    def test_evaluate_to_stdout(self, pipeline, capsys):
        assert main(["evaluate", "--run", str(pipeline["run_lm"]),
                     "--qrels", str(QRELS_PATH)]) == 0
        out = capsys.readouterr().out
        assert "NDCG@30" in out and "ALL" in out
