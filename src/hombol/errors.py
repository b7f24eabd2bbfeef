"""Exception types shared across the toolkit, and the integer reader every parser uses."""

import sys


class ParseError(ValueError):
    """Malformed textual input. Carries optional 1-based line/column."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line})" if column is None else f" (line {line}, column {column})"
        elif column is not None:
            where = f" (column {column})"
        super().__init__(message + where)

    def located(self, line, offset=0):
        """This error, raised on a piece of a document line, placed on that
        line: ``offset`` characters precede the piece in it."""
        column = None if self.column is None else self.column + offset
        return ParseError(self.message, line=line, column=column)


def parse_int(token, *, line=None, column=None, source=None):
    """int(token) for a run of digits a parser has matched.

    Python refuses to read an integer longer than sys.get_int_max_str_digits()
    digits; that becomes a ParseError at the token, prefixed with ``source``
    (a flag, say), instead of Python's ValueError naming no place.  The
    digits are not echoed.
    """
    try:
        return int(token)
    except ValueError:
        where = f"{source}: " if source else ""
        raise ParseError(
            f"{where}an integer literal of {len(token.replace('_', ''))} digits exceeds Python's "
            f"{sys.get_int_max_str_digits()}-digit limit for reading integers",
            line=line,
            column=column,
        ) from None


class MultilinearityError(ValueError):
    """Identity rejected: some additive term does not use every free variable exactly once."""


class PreconditionError(ValueError):
    """A construction was invoked on inputs that violate its stated preconditions."""


class ExponentLimitError(PreconditionError):
    """Derived-algebra order exceeds the configured exponent bound."""


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimensions."""
