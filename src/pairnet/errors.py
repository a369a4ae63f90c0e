"""Exception types shared across the package, and the checks that raise
them from more than one module."""

import numbers
import os
from contextlib import contextmanager


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


@contextmanager
def open_utf8(path, newline=None):
    """path opened for reading as UTF-8 text, with an optional byte-order mark.

    A byte that is not UTF-8 raises a ParseError naming its offset from the
    file's start: a decoder that reads in chunks, or strips the mark first,
    counts from its own input, so a regular file is decoded again whole. A
    pipe cannot be read again and keeps the decoder's offset.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        if os.path.isfile(path):
            with open(path, "rb") as raw:
                try:
                    raw.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    exc = whole
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None


class EmptyInputError(PairnetError):
    """An operation received no data to work on."""


class ParameterError(PairnetError):
    """An argument value is outside its valid range."""


def check_seed(seed) -> None:
    """ParameterError unless seed is an integer >= 0, as numpy's seeding
    requires."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed}")


class DimensionError(PairnetError):
    """Vector or matrix shapes do not match."""


class TrainingError(PairnetError):
    """Training preconditions are not met (missing class, one-sided targets,
    inputs large enough to overflow), or a model cannot be saved."""


class RangeError(TrainingError):
    """Training could leave float64's range: the training input is not
    finite, or too large for the given c and max_iterations."""
