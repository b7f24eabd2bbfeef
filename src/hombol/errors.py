"""Exception types shared across the toolkit, the integer reader every parser
uses, and the rules on names and shapes that documents and objects share."""

import re
import sys

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
NAME = re.compile(IDENT + r"\Z")

# a constraint document's keywords: an equation on such a name reads as a header line
_KEYWORDS = ("unknowns", "params")


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


def refuse_bad_names(names, what, line=None, reserved=()):
    """Refuse the first of ``names`` that is not an identifier, or is one of
    ``reserved``, as a bad ``what``; the parsers pass the document ``line``."""
    for name in names:
        if not NAME.match(name) or name in reserved:
            raise ParseError(f"bad {what} {name!r}", line=line)


def refuse_bad_basis(labels, dim, line=None):
    """A basis is ``dim`` labels, identifiers each given once."""
    if len(labels) != dim or len(set(labels)) != dim:
        raise ParseError(f"basis needs {dim} distinct labels", line=line)
    refuse_bad_names(labels, "basis label", line)


def refuse_bad_unknowns(unknowns, line=None):
    """Unknowns are one or more distinct identifiers, none a constraint keyword."""
    if not unknowns or len(set(unknowns)) != len(unknowns):
        raise ParseError("unknowns takes distinct names", line=line)
    refuse_bad_names(unknowns, "unknown name", line, _KEYWORDS)


def refuse_bad_params(params, taken, taken_what, line=None):
    """Parameters are distinct identifiers that repeat no name of ``taken``:
    the basis labels of an algebra or map, or the unknowns of a constraint
    system, whose parameters may not be its keywords either."""
    refuse_bad_names(params, "parameter name", line, _KEYWORDS if taken_what == "unknowns" else ())
    if len(set(params)) != len(params):
        raise ParseError("duplicate parameter name", line=line)
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
