import math
import sys

import pytest

from mathemb import artifacts
from mathemb.errors import MalformedRecord


@pytest.mark.parametrize("value,passes", [
    (0, True), (2 ** 63 - 1, True), (2 ** 63, False), (10 ** 400, False), (-1, False),
    (True, False), (False, False), (1.0, False), ("7", False), (None, False), (math.nan, False),
], ids=["0", "2**63-1", "2**63", "10**400", "-1", "true", "false", "1.0", "string", "null",
        "nan"])
def test_json_integer(value, passes):
    assert artifacts.json_integers([value], 0) is passes


def test_json_integers_check_every_entry_against_the_floor():
    assert artifacts.json_integers([1, 2 ** 63 - 1], 1)
    assert artifacts.json_integers([], 1)
    assert not artifacts.json_integers([1, 0], 1)
    assert not artifacts.json_integers({"a": 1, "b": True}.values(), 1)


@pytest.mark.parametrize("value,passes", [
    (0, True), (-2.5, True), (sys.float_info.max, True), (-sys.float_info.max, True),
    (2 ** 63, True), (10 ** 308, True), (10 ** 400, False), (-10 ** 400, False),
    (math.inf, False), (-math.inf, False), (math.nan, False), (True, False), ("7", False),
    (None, False),
], ids=["0", "-2.5", "float-max", "-float-max", "2**63", "10**308", "10**400", "-10**400",
        "inf", "-inf", "nan", "true", "string", "null"])
def test_finite_number(value, passes):
    assert artifacts.finite_numbers([value]) is passes


@pytest.mark.parametrize("value", ["", " ", "a b", "a\tb", "a\n", 7, None, ["a"]])
def test_identifier_rejects(value):
    with pytest.raises(MalformedRecord) as exc:
        artifacts.check_id(value, "page_id")
    assert str(exc.value) == f"page_id must be a non-empty string without whitespace, got {value!r}"


def test_identifier_passes():
    assert artifacts.check_id("x#f0", "formula id") == "x#f0"


@pytest.mark.parametrize("values", ["ab", ("a",), ["a", 7], ["a", None], None, {"a": 1}])
def test_list_of_strings_rejects(values):
    with pytest.raises(MalformedRecord, match="^text_terms must be a list of strings$"):
        artifacts.string_list(values, "text_terms")


def test_list_of_strings_passes():
    assert artifacts.string_list(["", "a b"], "text_terms") == ["", "a b"]
    assert artifacts.string_list([], "text_terms") == []


def test_an_integer_json_cannot_convert_is_a_record_defect(tmp_path):
    # Python converts at most 4300 digits; json.loads raises a plain ValueError
    path = tmp_path / "a.txt"
    path.write_text('{"n":1}\n{"n":' + "1" * 5000 + "}\n")
    with pytest.raises(MalformedRecord, match=f"^{path}:2: invalid JSON "):
        artifacts.read_records(path, dict)
