"""The benchmark tracer (perfbench/spans.py) wraps package functions by name.

A refactor that drops or renames one of those names makes Tracer.install
raise KeyError; these tests fail first, before a traced benchmark run does.
A refactor that moves a layer out of the tracer's sight (a search no longer
calls a wrapped name) fails the span counts of a traced search.
"""

import importlib.util
import sys

import pytest

from mathemb.cli import main
from mathemb.retrieval import RankMethod, rank_pages

from conftest import QUERIES_PATH, ROOT


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_live_names_and_restores_them(fixture_collection, fixture_queries,
                                                   fixture_index):
    tracer = load_spans().Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
        # the text side scores through lm_score, once per query
        for q in fixture_queries:
            rank_pages(q, fixture_collection, RankMethod.LM, index=fixture_index)
        assert tracer.calls("retrieval.lm_score") == len(fixture_queries)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


def test_traced_search_reaches_its_layers(pipeline, tmp_path, fixture_queries):
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert main(["search", "--store", str(pipeline["store"]), "--queries", str(QUERIES_PATH),
                     "--method", "combined", "--model", str(pipeline["f2v"]),
                     "--index", str(pipeline["index"]),
                     "--out", str(tmp_path / "combined.run")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls("retrieval.lm_score") == len(fixture_queries)
    for name in ("retrieval.TextIndex.load", "embeddings.load_table", "retrieval.write_run"):
        assert tracer.calls(name) == 1, name
    # search ranks through rank_queries, so the per-query rank_pages span is never entered
    assert tracer.calls("retrieval.rank_pages.combined") == 0


@pytest.mark.parametrize("command", ["train-symbol2vec", "train-formula2vec"])
def test_traced_training_reaches_its_layers(pipeline, tmp_path, command):
    # the benchmark's per-layer training metrics come from these two spans
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert main([command, "--corpus", str(pipeline["train"]), "--out", str(tmp_path / "m"),
                     "--dim", "8", "--epochs", "1"]) == 0
    finally:
        tracer.uninstall()
    trainer = "embeddings." + command.replace("-", "_")
    for name in (trainer, "embeddings.save_table"):
        assert tracer.calls(name) == 1, name
