"""Exception types shared across the package."""

import os


class PairnetError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PairnetError):
    """Input data violates the expected structure (columns, class counts, record/class mapping)."""


class ParseError(PairnetError):
    """A cell or line could not be parsed. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def utf8_error(path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for a file at path that is not UTF-8 text.

    A decoder that reads in chunks, or strips a byte-order mark first,
    reports exc.start from its own input; a regular file is decoded again
    whole here, so the message names the offset from the file's start. A
    pipe cannot be read again and keeps exc's offset.
    """
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
    return ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}")


class EmptyInputError(PairnetError):
    """An operation received no data to work on."""


class ParameterError(PairnetError):
    """An argument value is outside its valid range."""


class DimensionError(PairnetError):
    """Vector or matrix shapes do not match."""


class TrainingError(PairnetError):
    """Training preconditions are not met (missing class, one-sided targets)."""
