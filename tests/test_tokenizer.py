import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathemb.errors import InvalidEncoding, UnterminatedCommand
from mathemb.tokenizer import (
    SymbolToken, TokenClass, classify, passes_filter, tokenize, tokenize_surfaces,
)

from conftest import TEST_DATA
from oracles import reference_passes_filter, reference_tokenize


def load_golden():
    rows = []
    for line in (TEST_DATA / "golden_tokens.tsv").read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        enc, expected = line.split("\t")
        rows.append((json.loads(enc), expected.split(" ")))
    return rows


class TestTokenizeRules:
    def test_simple(self):
        assert tokenize_surfaces("\\sin x + 1") == ["\\sin", "x", "+", "1"]

    def test_empty(self):
        assert tokenize_surfaces("") == []

    def test_environment_grouping(self):
        got = tokenize_surfaces("\\begin{matrix}a\\\\b\\end{matrix}")
        assert got == ["\\begin", "{matrix}", "a", "\\\\", "b", "\\end", "{matrix}"]

    def test_environment_with_gap_and_star(self):
        assert tokenize_surfaces("\\begin {align*} x \\end{align*}") == \
            ["\\begin", "{align*}", "x", "\\end", "{align*}"]

    def test_environment_bad_name_falls_back(self):
        assert tokenize_surfaces("\\begin{x+y}") == ["\\begin", "{", "x", "+", "y", "}"]
        assert tokenize_surfaces("\\begin{ matrix }") == \
            ["\\begin", "{", "m", "a", "t", "r", "i", "x", "}"]

    def test_digits_split(self):
        assert tokenize_surfaces("2024") == ["2", "0", "2", "4"]

    def test_comment_stripped(self):
        assert tokenize_surfaces("a % rest vanishes\nb") == ["a", "b"]

    def test_escaped_percent_is_a_token(self):
        assert tokenize_surfaces("\\% x % but this goes") == ["\\%", "x"]

    def test_whitespace_never_in_surfaces(self):
        for latex, _ in load_golden():
            for s in tokenize_surfaces(latex):
                assert s and not any(c.isspace() for c in s)

    def test_lone_backslash_errors(self):
        for bad in ["\\", "x + \\", "a \\ b", b"\\"]:
            with pytest.raises(UnterminatedCommand):
                tokenize_surfaces(bad)

    def test_invalid_utf8(self):
        with pytest.raises(InvalidEncoding):
            tokenize_surfaces(b"\xff\xfe\xfd")

    def test_bytes_accepted(self):
        assert tokenize_surfaces(b"\\alpha + 1") == ["\\alpha", "+", "1"]


class TestClassify:
    @pytest.mark.parametrize("surface,expected", [
        ("\\alpha", TokenClass.VARIABLE),
        ("x", TokenClass.VARIABLE),
        ("Q", TokenClass.VARIABLE),
        ("+", TokenClass.OPERATOR),
        ("\\frac", TokenClass.OPERATOR),
        ("\\sin", TokenClass.OPERATOR),
        ("=", TokenClass.RELATION),
        ("\\le", TokenClass.RELATION),
        ("7", TokenClass.NUMBER),
        ("{", TokenClass.DELIMITER),
        ("\\begin", TokenClass.COMMAND),
        ("{matrix}", TokenClass.ENVIRONMENT),
        ("\\qquad", TokenClass.OTHER),
        ("\\\\", TokenClass.OTHER),
        ("!", TokenClass.OTHER),
    ])
    def test_table(self, surface, expected):
        assert classify(surface) is expected

    @given(st.text(alphabet=string.printable, min_size=1, max_size=8))
    def test_total_and_pure(self, surface):
        assert classify(surface) is classify(surface)
        assert isinstance(classify(surface), TokenClass)


class TestFilter:
    def test_spec_examples(self):
        assert passes_filter(tokenize("x + y = z + 1")) is True
        assert passes_filter(tokenize("x + 1")) is False
        assert passes_filter(tokenize("a+b-c=d")) is True

    def test_distinct_variables_not_total(self):
        # one variable repeated three times, plenty of operators
        assert passes_filter(tokenize("x + x + x = x")) is False

    def test_relations_count_as_operators(self):
        assert passes_filter(tokenize("a = b = c = d")) is True


class TestGoldenFile:
    def test_production_matches_frozen(self):
        for latex, expected in load_golden():
            assert tokenize_surfaces(latex) == expected, latex

    def test_reference_matches_frozen(self):
        for latex, expected in load_golden():
            assert reference_tokenize(latex) == expected, latex

    def test_filter_agrees_with_reference(self):
        for latex, _ in load_golden():
            assert passes_filter(tokenize(latex)) == reference_passes_filter(latex), latex


# printable ASCII plus the fragments where the environment and backslash
# rules meet: a property draws its text from these
_FRAGMENTS = ["\\begin", "\\end", "\\beginx", "{x}", "{a*}", "{a b}", "\\%", "\\\\",
              "\u00e9", "\x00"]
_MIXED_TEXT = st.lists(st.sampled_from(list(string.printable) + _FRAGMENTS),
                       max_size=60).map("".join)


class TestProperties:
    @given(_MIXED_TEXT)
    @settings(max_examples=500)
    def test_agrees_with_reference(self, text):
        # the same surfaces, or UnterminatedCommand exactly where the oracle raises
        try:
            expected = reference_tokenize(text)
        except ValueError:
            with pytest.raises(UnterminatedCommand):
                tokenize_surfaces(text)
            return
        assert tokenize_surfaces(text) == expected

    @given(st.text(alphabet=string.printable, max_size=120))
    @settings(max_examples=300)
    def test_fuzz_total(self, text):
        # any printable input either tokenizes or raises a documented error
        try:
            toks = tokenize_surfaces(text)
        except UnterminatedCommand:
            return
        assert all(t and not any(c.isspace() for c in t) for t in toks)

    @given(st.text(alphabet=string.printable, max_size=120))
    @settings(max_examples=300)
    def test_idempotence(self, text):
        try:
            first = tokenize_surfaces(text)
        except UnterminatedCommand:
            return
        assert tokenize_surfaces(" ".join(first)) == first

    @given(st.text(alphabet=string.printable, max_size=120))
    def test_determinism(self, text):
        try:
            a = tokenize_surfaces(text)
        except UnterminatedCommand:
            return
        assert tokenize_surfaces(text) == a

    def test_idempotence_on_fixture_corpus(self, fixture_collection):
        for f in fixture_collection.formulas.values():
            again = tokenize_surfaces(" ".join(f.surfaces))
            assert again == f.surfaces

    def test_tokenize_classifies_every_surface(self):
        toks = tokenize("\\sin x + 1")
        assert toks == [
            SymbolToken("\\sin", TokenClass.OPERATOR),
            SymbolToken("x", TokenClass.VARIABLE),
            SymbolToken("+", TokenClass.OPERATOR),
            SymbolToken("1", TokenClass.NUMBER),
        ]


def test_fixture_vocabulary_is_stable(fixture_vocab):
    # golden count over the bundled corpus; update deliberately if the
    # fixture or the scanner rules change
    assert len(fixture_vocab) == 60
