"""The benchmark tracer (perfbench/spans.py) wraps package functions by name.

A refactor that drops or renames one of those names makes Tracer.install
raise KeyError; this test fails first, before a traced benchmark run does.
"""

import importlib.util
import sys

from mathemb.retrieval import RankMethod, rank_pages

from conftest import ROOT


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
