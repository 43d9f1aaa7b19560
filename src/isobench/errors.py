"""Exception types shared across the package.

Every error raised on purpose derives from IsobenchError so callers can
separate expected failures (bad input, resource limits, non-convergence)
from genuine bugs. check_number is the one type check of a numeric
argument.
"""

from __future__ import annotations

import numbers


class IsobenchError(Exception):
    """Base class for all deliberate isobench errors."""


class ContractError(IsobenchError, ValueError):
    """A precondition on an argument was violated."""


def check_number(name: str, value, number: type) -> None:
    """Raise ContractError naming the argument unless value is a number of
    the abstract type number, numbers.Integral or numbers.Real; numpy
    scalars are numbers, and a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, number):
        what = "an integer" if number is numbers.Integral else "a real number"
        raise ContractError(f"{name} must be {what}, got {value!r}")


class GraphParseError(IsobenchError, ValueError):
    """Malformed graph text. Carries a byte offset or a line number."""

    def __init__(self, message: str, *, offset: int | None = None, line: int | None = None):
        where = ""
        if offset is not None:
            where = f" (byte offset {offset})"
        elif line is not None:
            where = f" (line {line})"
        super().__init__(message + where)
        self.message = message
        self.offset = offset
        self.line = line


class UnsupportedSizeError(ContractError):
    """The value fits the data model but exceeds a format limit."""


class ResourceLimitError(IsobenchError, RuntimeError):
    """The requested computation exceeds a configured work budget."""


class ConvergenceError(IsobenchError, RuntimeError):
    """An iterative numeric routine failed to converge."""


class NumericError(IsobenchError, RuntimeError):
    """A numeric routine left its supported regime."""


class CorpusIntegrityError(IsobenchError, RuntimeError):
    """Bundled corpus data failed its recorded expectations."""
