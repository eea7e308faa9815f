"""Exceptions shared across modules."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class RecordError(ValueError):
    """A public constructor's rejection of one record of its input;
    `record` is that record's key in the input mapping, so that a reader
    can name its line."""

    def __init__(self, message: str, record):
        self.record = record
        super().__init__(message)


class ConsistencyError(ValueError):
    """A mathematical consistency violation, e.g. a failed well-definedness
    probe during theta decomposition; carries the witness."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)
