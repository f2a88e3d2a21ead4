"""The one layout of every file mathemb writes and reads back.

An artifact is UTF-8 text with "\\n" line endings:

  MATHEMB-CORPUS v1          optional version header line
  # tool=mathemb seed=7 ...  optional meta comment, one k=v per key
  ...                        body: JSON records, word2vec rows, run lines or TSV

The meta comment writes its keys in the order of the mapping it is given,
so a caller that wants them sorted passes them sorted.  Readers check the
header, skip blank lines and "#" lines (a vector file's only before its
count line), and report every defect, a non-UTF-8 line among them, as
MalformedRecord with "path:line: message", which the CLI turns into a
one-line diagnostic and exit code 1.

Each JSON value follows one of four rules: an identifier (check_id), a
non-empty string without whitespace; a list of strings (string_list); a JSON
integer (json_integers), an int, not a bool, from a floor to below 2**63; a
finite number (finite_numbers), an int or float, not a bool, <= the largest float.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import MalformedRecord, MathembError


def check_id(value, kind: str) -> str:
    if not isinstance(value, str) or value.split() != [value]:
        raise MalformedRecord(
            f"{kind} must be a non-empty string without whitespace, got {value!r}")
    return value


def string_list(values, key: str) -> list[str]:
    """values, if it is a list of strings; str.join checks the entries in C."""
    try:
        "".join(values if type(values) is list else [None])     # a non-list fails as None
    except TypeError:
        raise MalformedRecord(f"{key} must be a list of strings") from None
    return values


def json_integers(values, least: int) -> bool:
    return all(type(v) is int and least <= v < 2 ** 63 for v in values)


def finite_numbers(values) -> bool:
    return all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values)


def to_json(record) -> str:
    """Compact JSON with sorted keys: the byte-stable form of every record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def comment(mapping) -> str:
    """A "# k=v k=v" comment line, keys in the mapping's order."""
    return "# " + " ".join(f"{k}={v}" for k, v in mapping.items())


def render(body, header: str | None = None, meta=None) -> str:
    """The text of an artifact: header line, meta comment, then the body lines."""
    lines = [header] if header else []
    if meta:
        lines.append(comment(meta))
    lines.extend(body)
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write(path, body, header: str | None = None, meta=None) -> None:
    write_text(path, render(body, header, meta))


def read_lines(path):
    """(line number, line) of each line of the UTF-8 text file path.

    Each line is checked as it is reached: one that holds a byte sequence
    that is not UTF-8 raises MalformedRecord with "path:line:", so a defect
    on an earlier line is reported first.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    # surrogateescape kept the undecodable byte as U+DC80..U+DCFF
                    byte = ord(line[exc.start]) - 0xDC00
                    raise MalformedRecord(
                        f"{path}:{line_no}: byte 0x{byte:02x} is not UTF-8") from None
            yield line_no, line


def read_records(path, parse, header: str | None = None) -> list:
    """parse(record) for every JSON-lines record of path, in file order.

    The first line must equal header when one is given.  A record that is
    not valid JSON or not an object, or whose parse raises KeyError (a
    missing field), TypeError or ValueError, raises MalformedRecord; a
    MathembError that parse raises is raised again with the same type.  Each
    message starts with "path:line:".
    """
    out = []
    lines = read_lines(path)
    if header is not None:
        first = next(lines, (1, ""))[1].rstrip("\n")
        if first != header:
            raise MalformedRecord(f"{path}:1: expected header {header!r}, got {first!r}")
    for line_no, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:   # a JSONDecodeError, or an integer past 4300 digits
            raise MalformedRecord(f"{path}:{line_no}: invalid JSON "
                                  f"({getattr(exc, 'msg', exc)})") from None
        if not isinstance(record, dict):
            raise MalformedRecord(f"{path}:{line_no}: record is not an object")
        try:
            out.append(parse(record))
        except KeyError as exc:
            raise MalformedRecord(f"{path}:{line_no}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise MalformedRecord(f"{path}:{line_no}: bad record ({exc})") from None
        except MathembError as exc:
            raise type(exc)(f"{path}:{line_no}: {exc}") from None
    return out


def read_fields(path, count: int, error=MalformedRecord):
    """(line number, fields) of each line of a whitespace-separated text file
    such as a TREC run or qrels file, skipping blank lines and "#" lines.  A
    line with other than count fields raises error with "path:line:"."""
    for line_no, line in read_lines(path):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != count:
            raise error(f"{path}:{line_no}: expected {count} fields, got {len(fields)}")
        yield line_no, fields


# ---------------------------------------------------------------------------
# word2vec-style vector files: [header] [meta] "rows dim", then "label v1 ... vdim"


def write_vectors(path, labels, matrix, header: str | None = None, meta=None) -> None:
    body = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    body += [label + " " + " ".join(f"{x:.6f}" for x in row)
             for label, row in zip(labels, matrix)]
    write(path, body, header, meta)


def read_vectors(path, header: str | None = None):
    """Labels and rows of a word2vec-style text file.

    Raises MalformedRecord, naming the file and line, on a wrong header, a
    bad count line, a row whose width differs from the count line, an entry
    that is not a finite number, a label an earlier row has, or a row count
    other than the count line's.
    """
    lines = [ln.rstrip("\n") for _, ln in read_lines(path)]
    pos = 0
    if header is not None:
        if not lines or lines[0] != header:
            raise MalformedRecord(f"{path}:1: expected header {header!r}")
        pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    try:
        n, dim = (int(x) for x in lines[pos].split())
    except (IndexError, ValueError):
        raise MalformedRecord(f"{path}:{pos + 1}: expected a count line 'rows dim'") from None
    if n < 0 or dim < 1:
        raise MalformedRecord(f"{path}:{pos + 1}: count line needs rows >= 0 and dim >= 1")
    if len(lines) - pos - 1 < n:
        raise MalformedRecord(f"{path}:{len(lines)}: count line promises {n} rows, file has "
                              f"{len(lines) - pos - 1}")
    labels, rows = {}, np.empty((n, dim))
    for i in range(n):
        lineno = pos + 2 + i
        parts = lines[lineno - 1].split(" ")
        if len(parts) != dim + 1:
            raise MalformedRecord(f"{path}:{lineno}: {len(parts) - 1} entries, expected {dim}")
        try:
            rows[i] = [float(x) for x in parts[1:]]
        except ValueError:
            raise MalformedRecord(f"{path}:{lineno}: entry is not a number") from None
        if parts[0] in labels:
            raise MalformedRecord(f"{path}:{lineno}: duplicate label {parts[0]!r}")
        labels[parts[0]] = None
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise MalformedRecord(f"{path}:{pos + 2 + bad[0]}: entry is not finite")
    for i in range(pos + 1 + n, len(lines)):
        if lines[i].strip():
            raise MalformedRecord(f"{path}:{i + 1}: count line promises {n} rows, file has more")
    return list(labels), rows
