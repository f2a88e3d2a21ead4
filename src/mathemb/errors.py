"""Exception types shared across the toolkit.

Every error raised on bad data or bad usage derives from MathembError so the
CLI can map them to a one-line diagnostic and exit code 1.
"""


class MathembError(Exception):
    pass


# --- tokenizer ---

class InvalidEncoding(MathembError):
    """Input bytes are not valid UTF-8."""


class UnterminatedCommand(MathembError):
    """A backslash with no printable character after it."""


# --- corpus ---

class MalformedRecord(MathembError):
    """A collection/query line that does not parse; message carries the line number."""


class DuplicatePageId(MathembError):
    pass


class DuplicateQueryId(MathembError):
    pass


class EmptyVocabulary(MathembError):
    """No surface survived the min_count cutoff."""


# --- embeddings ---

class DimensionMismatch(MathembError):
    pass


class EmptyContext(MathembError):
    """A training step was requested with zero context tokens."""


class EmptyCorpus(MathembError):
    pass


class UnknownTokensOnly(MathembError):
    """Every token of a formula is out of vocabulary; nothing to infer from."""


# --- analysis ---

class ZeroVector(MathembError):
    pass


class NonFiniteVector(MathembError):
    """A vector holds a NaN or infinite entry, so it has no cosine."""


class UnknownSurface(MathembError):
    pass


class InsufficientRows(MathembError):
    """Fewer vectors than requested principal components."""


# --- retrieval ---

class NoQueryFormulae(MathembError):
    pass


class UnknownPage(MathembError):
    pass


class NegativeAlpha(MathembError):
    pass


# --- evaluation ---

class MalformedRunLine(MathembError):
    pass


class MalformedQrelLine(MathembError):
    pass
