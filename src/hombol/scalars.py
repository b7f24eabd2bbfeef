"""Exact scalar arithmetic: multivariate polynomials over Q in named parameters.

A scalar is stored in canonical form, a map from monomial to nonzero
coefficient, with the empty monomial holding the constant term.  A coefficient
is an int when its denominator is 1 and a reduced Fraction otherwise, so the
common integer case never pays for Fraction arithmetic.  Because the form is
canonical, value equality is representation equality; there is no separate
normalization step to forget.  Scalars are immutable by convention.

A value that is constant (a coordinate, a map entry, a structure constant)
is kept as a native number: an int, or a Fraction when it is not integral.
The arithmetic operators take an int or a Fraction on either side and
return the native number whenever their result is constant, so kernels that
mix numbers and Scalars through ``*`` and ``+`` store a Scalar only for a
non-constant polynomial.  Constant Scalars come only from the public
surface: the constructor, ``rational``, ``ZERO`` and ``ONE``,
``substitute``, ``parse_scalar`` and the dense views of the algebra layer.
A constant Scalar equals its number and hashes like it.

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
from operator import itemgetter

from .errors import ParseError, int_digit_limit, parse_int, refuse_undeclared

__all__ = ["Scalar", "parse_scalar", "ZERO", "ONE"]

# A monomial is a tuple of (name, exponent) pairs, sorted by name, exponents >= 1.
_EMPTY = ()

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
NAME = re.compile(_IDENT + r"\Z")


def _canon(q):
    """A value in canonical form: an integral Fraction as its int, any other
    value (an int, a Fraction, a Scalar) as it is."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _number(x):
    """An int or a Fraction as its canonical native number; None for any
    other value, a Scalar included."""
    if x.__class__ is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return _canon(x)
    return None


def _mono_mul(m, n):
    """The product of two monomials, merging their sorted factors."""
    if not m:
        return n
    if not n:
        return m
    if len(m) == 1 == len(n):
        (a, e), (b, f) = m[0], n[0]
        if a == b:
            return ((a, e + f),)
        return m + n if a < b else n + m
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


def _shifted(monos, m):
    """Each monomial times the single-factor monomial m = ((name, e),), as a
    list: the exponent of name grows by e, or the factor goes in where name
    sorts.  A name at either end of a monomial is found by one comparison;
    only a name between its first and last factors takes a scan."""
    ((name, e),) = m
    out = []
    append = out.append
    for k in monos:
        if not k:
            append(m)
            continue
        last, f = k[-1]
        if last == name:
            append(k[:-1] + ((name, f + e),))
        elif last < name:
            append(k + m)
        else:
            first, f = k[0]
            if first > name:
                append(m + k)
            elif first == name:
                append(((name, f + e),) + k[1:])
            else:
                # k[0] sorts before name and k[-1] after it
                i = len(k) - 1
                while k[i - 1][0] > name:
                    i -= 1
                if k[i - 1][0] == name:
                    append(k[: i - 1] + ((name, k[i - 1][1] + e),) + k[i:])
                else:
                    append(k[:i] + m + k[i:])
    return out


# A side of at least this many terms takes the long path of Scalar._scaled and
# Scalar._times_term: monomials shifted by a single name in one loop
# (_shifted) and coefficients scaled once per distinct value
# (_scaled_values).  Every long side that the benchmark's workloads scale by
# a number other than 1 or -1 has a single distinct coefficient, where the
# lookup is faster than a Fraction product per term from two terms on; the
# one-term sides of the kernels' products, most of them single-factor
# monomials, are faster with a comprehension of _mono_mul up to about four
# terms.
_LONG = 3


def _scaled_values(terms, q):
    """The coefficients of a term map times the nonzero native number q,
    canonical and in the map's order.  A factor 1 or -1 makes no product;
    any other makes one per distinct coefficient: a long polynomial repeats
    a few coefficients, so most terms take a lookup instead of a product.
    The lookup is keyed on an int itself and on a Fraction's (numerator,
    denominator), as hashing a Fraction costs about as much as one Fraction
    operation."""
    values = terms.values()
    if q == 1:
        return values
    if q == -1:
        return [-c for c in values]
    products = {}
    out = []
    append = out.append
    for c in values:
        key = c if c.__class__ is int else c.as_integer_ratio()
        v = products.get(key)
        if v is None:
            v = products[key] = _canon(c * q)
        append(v)
    return out


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


def _display_key(item):
    """The display order of a (monomial, coefficient) pair: graded, higher
    total degree first, ties broken name-lexicographically."""
    m = item[0]
    return (-sum(map(itemgetter(1), m)), m)


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

    def _value(self):
        """This scalar as a value: its native number when it is constant,
        else itself."""
        t = self._terms
        if len(t) > 1:
            return self
        return t.get(_EMPTY, self) if t else 0

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
        return tuple(sorted(self._terms.items(), key=_display_key))

    # -- arithmetic ------------------------------------------------------
    #
    # Each operator takes an int or a Fraction on either side and returns
    # the native number when its result is constant.

    def __add__(self, other):
        if other.__class__ is not Scalar:
            q = _number(other)
            if q is None:
                return NotImplemented
            return self._shift(q)
        a, b = self._terms, other._terms
        if not b:
            return self._value()
        if not a:
            return other._value()
        acc = dict(a)
        for mono, coeff in b.items():
            c = acc.get(mono)
            if c is None:
                acc[mono] = coeff
            else:
                c = _canon(c + coeff)
                if c:
                    acc[mono] = c
                else:
                    del acc[mono]
        return _from_terms(acc)

    __radd__ = __add__

    def _shift(self, q):
        """self plus the native number q, added to the constant term."""
        if not q:
            return self._value()
        acc = dict(self._terms)
        c = _canon(acc.get(_EMPTY, 0) + q)
        if c:
            acc[_EMPTY] = c
        else:
            del acc[_EMPTY]
        return _from_terms(acc)

    def __neg__(self):
        return _from_terms({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other):
        if other.__class__ is Scalar:
            return self + (-other)
        q = _number(other)
        if q is None:
            return NotImplemented
        return self._shift(-q)

    def __rsub__(self, other):
        q = _number(other)
        if q is None:
            return NotImplemented
        return _canon(-self + q)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            q = _number(other)
            if q is None:
                return NotImplemented
            return self._scaled(q)
        a, b = self._terms, other._terms
        if len(a) < 2 <= len(b):
            self, a, b = other, b, a  # a side of one term or none goes right
        if len(b) < 2:
            # a single term c*m, a number c when m is empty
            if not b:
                return 0
            ((m, c),) = b.items()
            return self._times_term(m, c)
        # two polynomials of two or more terms each: their product is not
        # constant, but its terms may merge and cancel
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

    def _times_term(self, m, c):
        """self times the single term c*m, c a nonzero native number.  The
        product with a fixed monomial m is injective and c*c1 is never zero,
        so no terms merge or cancel: each monomial shifts by m and each
        coefficient scales by c, as in _scaled, which is the case m empty.
        A side of _LONG or more terms shifts by a single factor without a
        merge (_shifted) and scales by _scaled_values."""
        if not m:
            return self._scaled(c)
        t = self._terms
        if len(t) >= _LONG:
            monos = _shifted(t, m) if len(m) == 1 else [_mono_mul(k, m) for k in t]
            return _from_terms(dict(zip(monos, _scaled_values(t, c))))
        if c == 1:
            terms = {_mono_mul(k, m): v for k, v in t.items()}
        elif c == -1:
            terms = {_mono_mul(k, m): -v for k, v in t.items()}
        else:
            terms = {_mono_mul(k, m): _canon(v * c) for k, v in t.items()}
        return _from_terms(terms)

    def _scaled(self, q):
        """self times the native number q, coefficient by coefficient.  A
        factor 1 gives self back, as the kernels multiply basis leaves and
        identity columns into polynomial cells, and a factor -1 negates with
        no product.  A side of _LONG or more terms scales by
        _scaled_values."""
        if not q:
            return 0
        if q == 1:
            return self._value()
        if q == -1:
            return -self
        t = self._terms
        if len(t) >= _LONG:
            return _from_terms(dict(zip(t, _scaled_values(t, q))))
        return _from_terms({mono: _canon(c * q) for mono, c in t.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("scalar powers take a nonnegative integer exponent")
        base = self._value()
        if base.__class__ is not Scalar:
            return _canon(base**k)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return 1 if result is None else result

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings):
        """Replace parameters by scalars (or rationals); unknown names stay
        symbolic.  The result is a Scalar, constant or not."""
        if not bindings or not self._terms:
            return self
        out = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for name, e in mono:
                repl = bindings.get(name)
                base = Scalar.parameter(name) if repl is None else _value_of(repl)
                if base is None:
                    raise TypeError(f"cannot bind parameter {name!r} to {repl!r}")
                if base.__class__ is int and base in (0, 1):
                    term = term if base else 0  # no Fraction product for a factor 0 or 1
                elif term:
                    term = term * base**e
            if term:
                out = out + term
        return _as_scalar(out)

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
        if other.__class__ is Scalar:
            return self._terms == other._terms
        q = _number(other)
        if q is None:
            return NotImplemented
        return self._terms == ({_EMPTY: q} if q else {})

    def __hash__(self):
        """A constant hashes as its native number, which it equals."""
        value = self._value()
        if value is not self:
            return hash(value)
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return format_terms((mono, coeff, ()) for mono, coeff in self.terms())

    def __repr__(self):
        return f"Scalar({str(self)!r})"


ZERO = Scalar.rational(0)
ONE = Scalar.rational(1)


def _from_terms(terms):
    """The value of a canonical term map: its native number when it is
    constant, else a Scalar over it."""
    if len(terms) < 2:
        if not terms:
            return 0
        if _EMPTY in terms:
            return terms[_EMPTY]
    s = Scalar.__new__(Scalar)
    s._terms = terms
    return s


def _value_of(x):
    """x in stored form: a Scalar as its value (its native number when it is
    constant), an int or a Fraction as its canonical number; None for any
    other object."""
    if x.__class__ is Scalar:
        return x._value()
    return _number(x)


def _as_scalar(value):
    """A value as a Scalar, for the public surface: a native number becomes
    the constant Scalar."""
    if value.__class__ is Scalar:
        return value
    s = Scalar.__new__(Scalar)
    s._terms = {_EMPTY: _canon(value)} if value else {}
    return s


def format_terms(terms):
    """Lay out signed terms, given as (monomial, coefficient, trailing
    factors): '-2*b^2*x + a - 1/3'.  A magnitude of 1 is dropped unless the
    term has no other factor; no terms is '0'.  Each distinct coefficient's
    sign, magnitude and unit test are worked out once per call, keyed by its
    (numerator, denominator): a long polynomial repeats a few coefficients,
    and hashing a Fraction costs about as much as one Fraction operation."""
    parts = []
    rendered = {}
    for mono, coeff, tail in terms:
        key = coeff.as_integer_ratio()
        r = rendered.get(key)
        if r is None:
            mag = abs(coeff)
            r = rendered[key] = (coeff < 0, str(mag), mag == 1)
        negative, mag, unit = r
        factors = [f"{name}^{e}" if e > 1 else name for name, e in mono]
        factors.extend(tail)
        if not factors or not unit:
            factors.insert(0, mag)
        sign = ("- " if negative else "+ ") if parts else ("-" if negative else "")
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
    return _as_scalar(value)
