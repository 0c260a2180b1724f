"""Exception hierarchy for spanlink.

Every error carries a module-qualified ``code`` ("schema.MalformedSchema",
"query.PromptOverflow", ...) so the CLI can report failures uniformly and
callers can match on codes without string-parsing messages.  ``read_text``
is the one reader of text files: it turns bytes that are not UTF-8 into one
of these errors.
"""

from __future__ import annotations


class SpanlinkError(Exception):
    """Base class for all errors raised by this package."""

    module = "spanlink"

    @property
    def code(self) -> str:
        return f"{self.module}.{type(self).__name__}"


# ---------------------------------------------------------------- schema ---

class SchemaError(SpanlinkError):
    module = "schema"


class MalformedSchema(SchemaError):
    """Schema text does not follow the documented grammar."""


class UnknownPath(SchemaError):
    """A label path does not exist in the schema tree."""


class SchemaTooDeep(SchemaError):
    """Schema depth exceeds the configured maximum."""


class InvariantViolation(SchemaError):
    """Structural invariant broken (a schema without labels)."""


# -------------------------------------------------------------- tokenize ---

class TokenizeError(SpanlinkError):
    module = "tokenize"


class EmptyCorpus(TokenizeError):
    """build_vocab was handed a corpus with no usable tokens."""


class MalformedVocab(TokenizeError):
    """Vocabulary file violates the token<TAB>id layout."""


# ----------------------------------------------------------------- query ---

class QueryError(SpanlinkError):
    module = "query"


class EmptyTypeSet(QueryError):
    """A prefix group has no candidate types to ask about."""


class PromptOverflow(QueryError):
    """A single group+type pair cannot fit the prompt budget."""


class TextOverflow(QueryError):
    """Prompt plus text exceeds the total length budget."""


class MisalignedSpan(QueryError):
    """Gold character offsets do not land on token boundaries."""


class UnknownGoldType(QueryError):
    """Gold annotation names a type that is not a candidate at its level."""


# ----------------------------------------------------------------- model ---

class ModelError(SpanlinkError):
    module = "model"


class DimensionMismatch(ModelError):
    """Token/position/type ids exceed the corresponding embedding table."""


class OddHeadDim(ModelError):
    """Rotary scoring head dimension must be even."""


class ShapeMismatch(ModelError):
    """Arrays passed together do not agree in shape."""


class CheckpointMismatch(ModelError):
    """Checkpoint file does not match the expected layout or dimensions."""


# ---------------------------------------------------------------- decode ---

class DecodeError(SpanlinkError):
    module = "decode"


class NoCandidates(DecodeError):
    """Single-label classification needs at least one candidate label."""


class BadGridFile(DecodeError):
    """Score-matrix grid file is truncated or malformed."""


class NonFiniteScores(DecodeError):
    """NaN in a score cell a decoder reads, or anywhere in a grid file."""


# ---------------------------------------------------------------- engine ---

class EngineError(SpanlinkError):
    module = "engine"


class OracleExhausted(EngineError):
    """Stored score matrices ran out (or mismatched) during extraction."""


class Diverged(EngineError):
    """Training produced a non-finite gradient norm (NaN or inf)."""


# ---------------------------------------------------------- data_metrics ---

class DataError(SpanlinkError):
    module = "data_metrics"


class MalformedRecord(DataError):
    """A dataset line is not a valid record."""


class OffsetOutOfRange(DataError):
    """Annotation offsets fall outside the record text."""


class UnknownTask(DataError):
    """No metric key specification registered under that task name."""


# ------------------------------------------------------------------- cli ---

class CliError(SpanlinkError):
    module = "cli"


class BadConfig(CliError):
    """Config file or override flag does not parse."""


# ------------------------------------------------------------ text files ---

def read_text(path, error: type[SpanlinkError]) -> str:
    """The contents of a UTF-8 text file, with "\\r\\n" and "\\r" read as
    "\\n" as ``open`` reads them in text mode.  Every text file the package
    reads comes through here: bytes that are not UTF-8 raise ``error``,
    naming the file and the byte offset, instead of a ``UnicodeDecodeError``
    that no caller expects, and so does a path ``open`` rejects (one with a
    NUL byte)."""
    try:
        fh = open(path, "rb")
    except ValueError as exc:
        raise error(f"cannot open {str(path)!r}: {exc}") from None
    with fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{str(path)!r} is not UTF-8 text: {exc.reason} at byte "
                    f"{exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
