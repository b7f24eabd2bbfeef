"""Exact scalar arithmetic: multivariate polynomials over Q in named parameters.

A scalar is stored in canonical form, a map from monomial to nonzero reduced
Fraction, with the empty monomial holding the constant term.  Because the form
is canonical, value equality is representation equality; there is no separate
normalization step to forget.  Scalars are immutable by convention.

The literal grammar (shared by every file format) is sums of signed terms,
each term a '*'-joined product of rationals ``p`` or ``p/q`` and parameter
names, names optionally raised to a nonnegative integer power with ``^``::

    -1/3*lambda*b^2 + 2
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, parse_int

__all__ = ["Scalar", "parse_scalar", "ZERO", "ONE"]

# A monomial is a tuple of (name, exponent) pairs, sorted by name, exponents >= 1.
_EMPTY = ()

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^]))")


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
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            factors = [f"{name}^{e}" if e > 1 else name for name, e in mono]
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Scalar({str(self)!r})"


ZERO = Scalar.rational(0)
ONE = Scalar.rational(1)


class _ScalarReader:
    """Recursive-descent reader for the scalar literal grammar."""

    def __init__(self, text, names=None):
        self.text = text
        self.names = None if names is None else set(names)
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                col = len(text) - len(stripped) + 1
                raise ParseError(f"unexpected character {stripped[0]!r}", column=col)
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

    def expect_number(self, what):
        kind, value, col = self.take()
        if kind != "num":
            raise ParseError(f"expected {what}", column=col)
        return parse_int(value, column=col)

    def parse(self):
        value = self.sum()
        kind, value_, col = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing {value_!r}", column=col)
        return value

    def sum(self):
        total = ZERO
        sign = Fraction(1)
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            if value == "-":
                sign = -sign
        while True:
            total = total + Scalar.rational(sign) * self.term()
            kind, value, col = self.peek()
            if kind is None:
                return total
            if kind == "op" and value in "+-":
                self.take()
                sign = Fraction(1) if value == "+" else Fraction(-1)
                continue
            return total

    def term(self):
        value = self.factor()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok == "*":
                self.take()
                value = value * self.factor()
            else:
                return value

    def factor(self):
        kind, value, col = self.take()
        if kind == "num":
            num = Fraction(parse_int(value, column=col))
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.take()
                den = self.expect_number("a denominator")
                if den == 0:
                    raise ParseError("zero denominator", column=col)
                num = num / den
            base = Scalar.rational(num)
        elif kind == "name":
            if self.names is not None and value not in self.names:
                raise ParseError(f"undeclared symbol {value!r}", column=col)
            base = Scalar.parameter(value)
        else:
            raise ParseError(f"expected a number or name, got {value!r}" if value else "unexpected end of input", column=col)
        kind2, value2, _ = self.peek()
        if kind2 == "op" and value2 == "^":
            self.take()
            exp = self.expect_number("an integer exponent")
            base = base**exp
        return base


def parse_scalar(text, names=None):
    """Parse the scalar literal grammar.

    ``names`` restricts which parameter names may appear (an undeclared name
    is a parse error); ``None`` admits any identifier.
    """
    reader = _ScalarReader(text, names)
    if not reader.tokens:
        raise ParseError("empty scalar")
    return reader.parse()
