"""LaTeX formula tokenizer and symbol classifier.

One pattern, _TOKEN_RE, describes every token; a formula is one pass of it:

  * whitespace (spaces, tabs, newlines) separates tokens and never appears
    inside a surface;
  * ``%`` starts a comment that runs to the end of the line (``\\%`` is the
    escaped percent token, not a comment);
  * a backslash followed by ASCII letters is one control word (maximal
    munch), a backslash followed by a single other printable character is
    one control symbol, and a backslash followed by whitespace or end of
    input raises UnterminatedCommand;
  * directly after ``\\begin`` or ``\\end`` (optionally separated by
    whitespace) a group ``{name}`` whose name holds only ASCII letters, digits
    and ``*`` is emitted as a single environment token, braces included;
  * every other printable character is its own token; multi-digit numbers
    come out digit by digit.

Token classes are a pure function of the surface, driven by the plain-text
tables in ``mathemb/data`` (one surface per line, ``#`` comments allowed).
Editing those files retunes the corpus filter without touching code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .errors import InvalidEncoding, UnterminatedCommand


class TokenClass(Enum):
    COMMAND = "COMMAND"
    VARIABLE = "VARIABLE"
    NUMBER = "NUMBER"
    OPERATOR = "OPERATOR"
    RELATION = "RELATION"
    DELIMITER = "DELIMITER"
    ENVIRONMENT = "ENVIRONMENT"
    OTHER = "OTHER"


@dataclass(frozen=True)
class SymbolToken:
    surface: str
    cls: TokenClass


@dataclass
class TokenizedFormula:
    """An ordered symbol sequence with an opaque id."""

    id: str
    tokens: list[SymbolToken] = field(default_factory=list)

    @property
    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


def _load_table(name: str) -> frozenset[str]:
    text = resources.files("mathemb.data").joinpath(name).read_text(encoding="utf-8")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line)
    return frozenset(rows)


def _build_class_table() -> dict[str, TokenClass]:
    table: dict[str, TokenClass] = {}
    for name, cls in (
        ("greek.txt", TokenClass.VARIABLE),
        ("operators.txt", TokenClass.OPERATOR),
        ("relations.txt", TokenClass.RELATION),
        ("delimiters.txt", TokenClass.DELIMITER),
        ("commands.txt", TokenClass.COMMAND),
    ):
        for surface in _load_table(name):
            if surface in table:
                raise ValueError(f"surface {surface!r} appears in two classification tables")
            table[surface] = cls
    return table


_CLASS_TABLE = _build_class_table()

_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = frozenset("0123456789")
_ENV_NAME = r"\{[A-Za-z0-9*]+\}"
_ENV_SHAPE = re.compile(_ENV_NAME + r"\Z")

# No group: whitespace and comments.  Group 1: \begin or \end; group 2: the
# {name} after it, if any.  Group 3: any other token, a lone backslash as "\\".
_TOKEN_RE = re.compile(r"\s+|%[^\n]*"
                       rf"|(\\(?:begin|end)(?![A-Za-z]))(?:\s*({_ENV_NAME}))?"
                       r"|(\\[A-Za-z]+|\\[^A-Za-z\s]|\S)")


def classify(surface: str) -> TokenClass:
    """Class of a surface; total, unknown surfaces map to OTHER."""
    if len(surface) == 1:
        if surface in _DIGITS:
            return TokenClass.NUMBER
        if surface in _ASCII_LETTERS:
            return TokenClass.VARIABLE
    cls = _CLASS_TABLE.get(surface)
    if cls is not None:
        return cls
    if _ENV_SHAPE.match(surface):
        return TokenClass.ENVIRONMENT
    return TokenClass.OTHER


def tokenize_surfaces(latex: str | bytes) -> list[str]:
    """Scan a LaTeX string into raw token surfaces."""
    if isinstance(latex, bytes):
        try:
            latex = latex.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidEncoding(str(exc)) from None
    out: list[str] = []
    for m in _TOKEN_RE.finditer(latex):
        tok = m[3]
        if tok is not None:
            if tok == "\\":
                raise UnterminatedCommand(f"lone backslash at offset {m.start()}")
            out.append(tok)
        elif m[1] is not None:
            out.append(m[1])
            if m[2] is not None:
                out.append(m[2])
    return out


def tokenize(latex: str | bytes) -> list[SymbolToken]:
    """Tokenize a formula and classify every surface."""
    return [SymbolToken(s, classify(s)) for s in tokenize_surfaces(latex)]


def passes_filter(tokens: list[SymbolToken]) -> bool:
    """Corpus eligibility: >= 2 distinct variables and >= 3 operator/relation occurrences."""
    variables = set()
    operators = 0
    for tok in tokens:
        if tok.cls is TokenClass.VARIABLE:
            variables.add(tok.surface)
        elif tok.cls in (TokenClass.OPERATOR, TokenClass.RELATION):
            operators += 1
    return len(variables) >= 2 and operators >= 3
