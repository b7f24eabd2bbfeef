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


def int_digit_limit():
    """Python's limit on the digits of an integer it reads or prints (the
    default one when the limit is switched off)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


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


def refuse_overlap(taken, params, taken_what, line=None):
    """Refuse parameters that repeat a name of ``taken`` (basis labels or
    unknowns).  The parsers pass the document ``line`` and raise a
    ParseError; the objects the emitters read raise it with no place."""
    if set(taken) & set(params):
        raise ParseError(f"{taken_what} and parameters overlap", line=line)


def refuse_undeclared(names, declared, line=None, column=None):
    """Refuse the first of ``names`` that ``declared`` lacks: a basis label
    or parameter of a document, or a symbol of a constraint equation."""
    for name in names:
        if name not in declared:
            raise ParseError(f"undeclared symbol {name!r}", line=line, column=column)


class MultilinearityError(ValueError):
    """Identity rejected: some additive term does not use every free variable exactly once."""


class PreconditionError(ValueError):
    """A construction was invoked on inputs that violate its stated preconditions."""


class ExponentLimitError(PreconditionError):
    """A derived-algebra order above DERIVED_ORDER_LIMIT, or a map power above
    POWER_LIMIT (twisting orders, --twist-exp, A^k in identities)."""


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimensions."""
