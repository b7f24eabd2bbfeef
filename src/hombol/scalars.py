"""Exact scalar arithmetic: multivariate polynomials over Q in named parameters.

A scalar is stored in canonical form, a map from monomial to nonzero reduced
Fraction, with the empty monomial holding the constant term.  Because the form
is canonical, value equality is representation equality; there is no separate
normalization step to forget.  Scalars are immutable by convention.

The literal grammar (shared by every file format) is sums of signed terms,
each term a '*'-joined product of rationals ``p`` or ``p/q`` and parameter
names, names optionally raised to a nonnegative integer power with ``^``::

    -1/3*lambda*b^2 + 2

This module also holds what every text format shares: the token reader
behind this grammar and the identity grammar, the signed-term renderer
behind ``str(Scalar)`` and the vector layout, and the line splitter.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, parse_int

__all__ = ["Scalar", "parse_scalar", "ZERO", "ONE"]

# A monomial is a tuple of (name, exponent) pairs, sorted by name, exponents >= 1.
_EMPTY = ()

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
NAME = re.compile(_IDENT + r"\Z")


def _mono_mul(m, n):
    if not m:
        return n
    if not n:
        return m
    acc = dict(m)
    for name, e in n:
        acc[name] = acc.get(name, 0) + e
    return tuple(sorted(acc.items()))


def _mono_pow(m, k):
    if k == 0 or not m:
        return _EMPTY
    return tuple((name, e * k) for name, e in m)


def _mono_degree(m):
    return sum(e for _, e in m)


def _display_key(m):
    # graded order: higher total degree first, ties broken name-lexicographically
    return (-_mono_degree(m), m)


class Scalar:
    """A polynomial over Q in named parameters, kept canonical at all times."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        pruned = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, Fraction):
                    coeff = Fraction(coeff)
                if coeff:
                    pruned[mono] = coeff
        self._terms = pruned

    @classmethod
    def rational(cls, value, den=None):
        f = Fraction(value) if den is None else Fraction(value, den)
        s = cls.__new__(cls)
        s._terms = {_EMPTY: f} if f else {}
        return s

    @classmethod
    def parameter(cls, name):
        s = cls.__new__(cls)
        s._terms = {((name, 1),): Fraction(1)}
        return s

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.rational(value)
        return None

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def is_rational(self):
        return not self._terms or (len(self._terms) == 1 and _EMPTY in self._terms)

    def as_fraction(self):
        """The value as a Fraction; raises if any parameter is still present."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and _EMPTY in self._terms:
            return self._terms[_EMPTY]
        raise ValueError(f"scalar {self} is not a plain rational")

    def variables(self):
        names = set()
        for mono in self._terms:
            for name, _ in mono:
                names.add(name)
        return frozenset(names)

    def terms(self):
        """The canonical (monomial, coefficient) pairs in display order."""
        return tuple(sorted(self._terms.items(), key=lambda kv: _display_key(kv[0])))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for mono, coeff in other._terms.items():
            c = acc.get(mono)
            if c is None:
                acc[mono] = coeff
            else:
                c = c + coeff
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
        out = Scalar.__new__(Scalar)
        out._terms = acc
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Scalar.__new__(Scalar)
        out._terms = {mono: -coeff for mono, coeff in self._terms.items()}
        return out

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        acc = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                c = acc.get(mono)
                if c is None:
                    acc[mono] = c1 * c2
                else:
                    c = c + c1 * c2
                    if c:
                        acc[mono] = c
                    else:
                        del acc[mono]
        out = Scalar.__new__(Scalar)
        out._terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("scalar powers take a nonnegative integer exponent")
        if len(self._terms) == 1:
            # single-term fast path keeps b^(2^n) cheap
            (mono, coeff), = self._terms.items()
            out = Scalar.__new__(Scalar)
            out._terms = {_mono_pow(mono, k): coeff**k}
            return out
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings):
        """Replace parameters by scalars (or rationals); unknown names stay symbolic."""
        if not bindings or not self._terms:
            return self
        out = ZERO
        for mono, coeff in self._terms.items():
            term = Scalar.rational(coeff)
            for name, e in mono:
                repl = bindings.get(name)
                if repl is None:
                    base = Scalar.parameter(name)
                else:
                    base = Scalar._coerce(repl)
                    if base is None:
                        raise TypeError(f"cannot bind parameter {name!r} to {repl!r}")
                term = term * base**e
            out = out + term
        return out

    def evaluate(self, bindings):
        """Fully evaluate to a Fraction; every parameter must be bound to a rational."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for name, e in mono:
                try:
                    value = value * Fraction(bindings[name]) ** e
                except KeyError:
                    raise ValueError(f"unbound parameter {name!r}") from None
            total += value
        return total

    # -- structural ------------------------------------------------------

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return format_terms((mono, coeff, ()) for mono, coeff in self.terms())

    def __repr__(self):
        return f"Scalar({str(self)!r})"


ZERO = Scalar.rational(0)
ONE = Scalar.rational(1)


def format_terms(terms):
    """Lay out signed terms, given as (monomial, coefficient, trailing
    factors): '-2*b^2*x + a - 1/3'.  A magnitude of 1 is dropped unless the
    term has no other factor; no terms is '0'."""
    parts = []
    for mono, coeff, tail in terms:
        factors = [f"{name}^{e}" if e > 1 else name for name, e in mono]
        factors.extend(tail)
        mag = abs(coeff)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        sign = ("- " if coeff < 0 else "+ ") if parts else ("-" if coeff < 0 else "")
        parts.append(sign + "*".join(factors))
    return " ".join(parts) or "0"


def content_lines(text):
    """(1-based line number, line) for every line of text that is not blank
    once its '#' comment and trailing whitespace are cut.  Leading
    whitespace stays, so a column in the line is a column in the source."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield lineno, line


def token_pattern(ops):
    """The tokens of a grammar: digit runs, identifiers and the one-character
    operators in ``ops``."""
    return re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>" + _IDENT + r")|(?P<op>[" + re.escape(ops) + "]))")


class TokenReader:
    """Tokens and a cursor over them, for a recursive-descent grammar.

    A grammar subclasses this with its own ``pattern`` (see token_pattern).
    Tokens are (kind, text, 1-based column) with kind 'num', 'name' or 'op';
    past the end, peek gives (None, None, len(text) + 1).
    """

    pattern = None

    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = self.pattern.match(text, pos)
            if m is None:
                tail = text[pos:].lstrip()
                if not tail:
                    break
                raise ParseError(f"unexpected character {tail[0]!r}", column=len(text) - len(tail) + 1)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text) + 1)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def at_op(self, *symbols):
        kind, value, _ = self.peek()
        return kind == "op" and value in symbols

    def sign(self):
        """Take an optional '+' or '-': -1 for '-', else 1."""
        return -1 if self.at_op("+", "-") and self.take()[1] == "-" else 1

    def expect(self, symbol):
        kind, value, col = self.take()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", column=col)

    def expect_number(self, what):
        kind, value, col = self.take()
        if kind != "num":
            raise ParseError(f"expected {what}", column=col)
        return parse_int(value, column=col)

    def expect_end(self):
        kind, value, col = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing {value!r}", column=col)

    def rational(self):
        """num ['/' num] as a Fraction; the cursor is at the numerator."""
        value = Fraction(self.expect_number("a number"))
        if self.at_op("/"):
            self.take()
            col = self.peek()[2]
            den = self.expect_number("a denominator")
            if den == 0:
                raise ParseError("zero denominator", column=col)
            value /= den
        return value


class _ScalarReader(TokenReader):
    """Recursive-descent reader for the scalar literal grammar."""

    pattern = token_pattern("-+*/^")

    def __init__(self, text, names=None):
        super().__init__(text)
        self.names = None if names is None else set(names)

    def sum(self):
        total = ZERO
        while True:
            total = total + Scalar.rational(self.sign()) * self.term()
            if not self.at_op("+", "-"):
                return total

    def term(self):
        value = self.factor()
        while self.at_op("*"):
            self.take()
            value = value * self.factor()
        return value

    def factor(self):
        kind, value, col = self.peek()
        if kind == "num":
            base = Scalar.rational(self.rational())
        elif kind == "name":
            self.take()
            if self.names is not None and value not in self.names:
                raise ParseError(f"undeclared symbol {value!r}", column=col)
            base = Scalar.parameter(value)
        else:
            raise ParseError(f"expected a number or name, got {value!r}" if value else "unexpected end of input", column=col)
        if self.at_op("^"):
            self.take()
            base = base ** self.expect_number("an integer exponent")
        return base


def parse_scalar(text, names=None):
    """Parse the scalar literal grammar.

    ``names`` restricts which parameter names may appear (an undeclared name
    is a parse error); ``None`` admits any identifier.
    """
    reader = _ScalarReader(text, names)
    if not reader.tokens:
        raise ParseError("empty scalar")
    value = reader.sum()
    reader.expect_end()
    return value
