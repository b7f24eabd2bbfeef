"""Exact scalar arithmetic: multivariate polynomials over Q in named parameters.

A scalar is stored in canonical form, a map from monomial to nonzero
coefficient, with the empty monomial holding the constant term.  A coefficient
is an int when its denominator is 1 and a reduced Fraction otherwise, so the
common integer case never pays for Fraction arithmetic.  Because the form is
canonical, value equality is representation equality; there is no separate
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

import math
import re
from fractions import Fraction

from .errors import ParseError, int_digit_limit, parse_int, refuse_undeclared

__all__ = ["Scalar", "parse_scalar", "ZERO", "ONE"]

# A monomial is a tuple of (name, exponent) pairs, sorted by name, exponents >= 1.
_EMPTY = ()

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
NAME = re.compile(_IDENT + r"\Z")


def _canon(q):
    """A coefficient in canonical form: an int when its denominator is 1,
    else the reduced Fraction."""
    if q.__class__ is int:
        return q
    return q.numerator if q.denominator == 1 else q


def _mono_mul(m, n):
    """The product of two monomials, merging their sorted factors."""
    if not m:
        return n
    if not n:
        return m
    out = []
    i = j = 0
    while i < len(m) and j < len(n):
        (a, e), (b, f) = m[i], n[j]
        if a == b:
            out.append((a, e + f))
            i += 1
            j += 1
        elif a < b:
            out.append(m[i])
            i += 1
        else:
            out.append(n[j])
            j += 1
    out.extend(m[i:] or n[j:])
    return tuple(out)


def _mono_canon(mono):
    """A monomial given as (name, exponent) pairs in canonical form: sorted
    by name, repeated names merged, zero exponents dropped."""
    acc = {}
    for name, e in mono:
        if not isinstance(e, int):
            raise TypeError(f"exponent of {name!r} must be an int, got {e!r}")
        if e < 0:
            raise ValueError(f"exponent of {name!r} must be nonnegative, got {e}")
        acc[name] = acc.get(name, 0) + e
    return tuple(sorted((name, e) for name, e in acc.items() if e))


def _mono_degree(m):
    return sum(e for _, e in m)


def _display_key(m):
    # graded order: higher total degree first, ties broken name-lexicographically
    return (-_mono_degree(m), m)


class Scalar:
    """A polynomial over Q in named parameters, kept canonical at all times."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """The polynomial sum of ``terms``, a map from monomial, as (name,
        exponent) pairs, to int or Fraction coefficient."""
        acc = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"a scalar coefficient must be an int or a Fraction, got {coeff!r}")
                mono = _mono_canon(mono)
                acc[mono] = acc.get(mono, 0) + coeff
        self._terms = {mono: _canon(c) for mono, c in acc.items() if c}

    @classmethod
    def rational(cls, value, den=None):
        """The constant value/den; both must be ints or Fractions."""
        for x in (value, 1 if den is None else den):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"a rational must be built from ints and Fractions, got {x!r}")
        if den is not None:
            value = Fraction(value, den)
        c = _canon(value)
        s = cls.__new__(cls)
        s._terms = {_EMPTY: c} if c else {}
        return s

    @classmethod
    def parameter(cls, name):
        s = cls.__new__(cls)
        s._terms = {((name, 1),): 1}
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
            return Fraction(self._terms[_EMPTY])
        raise ValueError(f"scalar {self} is not a plain rational")

    def variables(self):
        names = set()
        for mono in self._terms:
            for name, _ in mono:
                names.add(name)
        return frozenset(names)

    def terms(self):
        """The canonical (monomial, coefficient) pairs in display order; a
        coefficient is an int or a Fraction."""
        return tuple(sorted(self._terms.items(), key=lambda kv: _display_key(kv[0])))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
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
                c = _canon(c + coeff)
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
        if not acc:
            return ZERO  # the kernels pass over the ZERO singleton without a call
        out = Scalar.__new__(Scalar)
        out._terms = acc
        return out

    __radd__ = __add__

    def __neg__(self):
        if not self._terms:
            return self
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
        if other.__class__ is not Scalar:
            other = Scalar._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        # a constant factor 1 or -1 costs no coefficient product; in
        # canonical form a unit coefficient is an int
        if len(b) == 1:
            u = b.get(_EMPTY)
            if u.__class__ is int and (u == 1 or u == -1):
                return self if u == 1 else -self
        if len(a) == 1:
            u = a.get(_EMPTY)
            if u.__class__ is int and (u == 1 or u == -1):
                return other if u == 1 else -other
        acc = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mono_mul(m1, m2)
                c = acc.get(mono)
                if c is None:
                    acc[mono] = _canon(c1 * c2)
                else:
                    c = _canon(c + c1 * c2)
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
        """Fully evaluate to a Fraction; every parameter must be bound to an
        int or a Fraction."""
        total = 0
        for mono, coeff in self._terms.items():
            value = coeff
            for name, e in mono:
                try:
                    x = bindings[name]
                except KeyError:
                    raise ValueError(f"unbound parameter {name!r}") from None
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(f"cannot bind parameter {name!r} to {x!r}")
                value = value * x**e
            total += value
        return Fraction(total)

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


def _too_long_power(q, k):
    """Whether the numerator or denominator of q^k has more digits than
    Python prints, decided without computing the power."""
    m = max(abs(q.numerator), q.denominator)
    return m > 1 and k >= int_digit_limit() / math.log10(m)


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
            if self.names is not None:
                refuse_undeclared((value,), self.names, column=col)
            base = Scalar.parameter(value)
        else:
            raise ParseError(f"expected a number or name, got {value!r}" if value else "unexpected end of input", column=col)
        if self.at_op("^"):
            self.take()
            col = self.peek()[2]
            k = self.expect_number("an integer exponent")
            if kind == "num" and _too_long_power(base.as_fraction(), k):
                raise ParseError(
                    f"a power of a number would exceed Python's {int_digit_limit()}-digit limit for integers",
                    column=col,
                )
            base = base**k
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
