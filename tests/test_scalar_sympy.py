"""Scalar ring laws against sympy (needs hypothesis and sympy; skipped without them).

Sums, products, powers, substitutions and evaluations of small random
polynomials must equal what sympy.expand makes of the same expressions, also
where one operand is an int or a Fraction; an operator's result must be a
native number exactly when it is constant.  A product with a single-term
side, which shifts the other side's monomials instead of accumulating term
products, must also equal the general accumulation.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")

from hombol.scalars import Scalar, _mono_canon, _mono_mul

given = hypothesis.given

NAMES = ("a", "b", "lambda")
OTHER_NAMES = ("c", "d")  # names that the polynomials of ``scalars`` never use
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES + OTHER_NAMES}

monomials = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 3)), max_size=3).map(
    lambda pairs: tuple(sorted(dict(pairs).items()))
)
coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.dictionaries(monomials, coefficients, max_size=4).map(Scalar)
# values bound to a parameter: linear, so a substitution stays small
linear_monomials = st.sampled_from(((),) + tuple(((name, 1),) for name in NAMES))
linear = st.dictionaries(linear_monomials, coefficients, max_size=2).map(Scalar)


def to_sympy(s):
    """The sympy expression of a Scalar, built term by term (no text), or
    of an int or a Fraction."""
    if not isinstance(s, Scalar):
        return sympy.Rational(s.numerator, s.denominator)
    total = sympy.Integer(0)
    for mono, coeff in s.terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, e in mono:
            term *= SYMBOLS[name] ** e
        total += term
    return total


def same(s, expr):
    """Whether a Scalar equals a sympy expression once both are expanded."""
    return sympy.expand(to_sympy(s) - expr) == 0


@given(scalars, scalars)
def test_sum(x, y):
    assert same(x + y, to_sympy(x) + to_sympy(y))
    assert same(x - y, to_sympy(x) - to_sympy(y))


@given(scalars, scalars)
def test_product(x, y):
    assert same(x * y, to_sympy(x) * to_sympy(y))


@given(scalars)
def test_unit_products(x):
    # units on either side, as ints and as Scalars
    p = to_sympy(x)
    for unit in (1, -1, Scalar.rational(1), Scalar.rational(-1)):
        sign = 1 if unit == 1 else -1
        assert same(x * unit, sign * p)
        assert same(unit * x, sign * p)


@given(scalars, st.integers(0, 4))
def test_power(x, k):
    assert same(x**k, to_sympy(x) ** k)


@given(scalars, st.dictionaries(st.sampled_from(NAMES), linear, max_size=3))
def test_substitute(x, bindings):
    expected = to_sympy(x).subs({SYMBOLS[n]: to_sympy(v) for n, v in bindings.items()}, simultaneous=True)
    assert same(x.substitute(bindings), expected)


@given(scalars, st.fixed_dictionaries({name: coefficients for name in NAMES}))
def test_evaluate(x, values):
    expected = to_sympy(x).subs({SYMBOLS[n]: sympy.Rational(v.numerator, v.denominator) for n, v in values.items()})
    assert x.evaluate(values) == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))


def native_exactly_when_constant(result):
    """Whether an operator's result is an int, or a Fraction that is not
    integral, when it is constant, and a non-constant Scalar otherwise."""
    if isinstance(result, Scalar):
        return not result.is_rational()
    return type(result) is int or (type(result) is Fraction and result.denominator != 1)


numbers = st.one_of(st.integers(-20, 20), coefficients)


@given(scalars, numbers)
def test_mixed_operands(x, q):
    p, r = to_sympy(x), to_sympy(q)
    cases = [
        (x * q, p * r),
        (q * x, p * r),
        (x + q, p + r),
        (q + x, p + r),
        (x - q, p - r),
        (q - x, r - p),
        (-x, -p),
    ]
    for result, expected in cases:
        assert same(result, expected)
        assert native_exactly_when_constant(result)


@given(scalars, scalars, st.integers(0, 3))
def test_results_are_native_exactly_when_constant(x, y, k):
    for result in (x + y, x - y, x * y, x**k, -x):
        assert native_exactly_when_constant(result)


# -- products with a single-term side ------------------------------------

unit_coefficients = st.sampled_from((1, -1))
int_coefficients = st.integers(-20, 20).filter(lambda c: c not in (-1, 0, 1))
fraction_coefficients = coefficients.filter(lambda c: c.denominator != 1)
term_coefficients = st.one_of(unit_coefficients, int_coefficients, fraction_coefficients)


def monomials_over(names):
    return st.lists(st.tuples(st.sampled_from(names), st.integers(1, 3)), max_size=3).map(
        lambda pairs: tuple(sorted(dict(pairs).items()))
    )


def single_term(mono, coeff):
    return Scalar({mono: coeff})


def accumulated(x, y):
    """x*y by the general accumulation: every pair of terms multiplied and
    summed, the monomials concatenated and left to the constructor to merge."""
    acc = {}
    for m1, c1 in x.terms():
        for m2, c2 in y.terms():
            acc[m1 + m2] = acc.get(m1 + m2, 0) + c1 * c2
    return Scalar(acc)


def check_single_term_product(x, term):
    p, t = to_sympy(x), to_sympy(term)
    for result in (x * term, term * x):
        assert same(result, p * t)
        assert result == accumulated(x, term)
        assert native_exactly_when_constant(result)


@given(scalars, st.data())
def test_single_term_products_sharing_names(x, data):
    shared = tuple(sorted(x.variables())) or NAMES
    term = single_term(data.draw(monomials_over(shared)), data.draw(term_coefficients))
    check_single_term_product(x, term)


@given(scalars, monomials_over(OTHER_NAMES), term_coefficients)
def test_single_term_products_with_new_names(x, mono, coeff):
    check_single_term_product(x, single_term(mono, coeff))


@given(
    st.dictionaries(monomials.filter(bool), coefficients, min_size=1, max_size=4),
    term_coefficients,
    monomials_over(NAMES + OTHER_NAMES),
    term_coefficients,
)
def test_single_term_times_a_polynomial_with_a_constant_term(terms, constant, mono, coeff):
    x = Scalar({**terms, (): constant})
    check_single_term_product(x, single_term(mono, coeff))


@given(monomials_over(NAMES), term_coefficients, monomials_over(NAMES), term_coefficients)
def test_two_single_terms(m, c, n, d):
    check_single_term_product(single_term(m, c), single_term(n, d))


single_factors = st.tuples(st.sampled_from(NAMES), st.integers(1, 5)).map(lambda pair: (pair,))


@given(st.one_of(single_factors, monomials), st.one_of(single_factors, monomials))
def test_monomial_products(m, n):
    assert _mono_mul(m, n) == _mono_mul(n, m) == _mono_canon(m + n)


def test_single_factor_monomial_products():
    assert _mono_mul((("b", 2),), (("b", 3),)) == (("b", 5),)
    assert _mono_mul((("b", 2),), (("a", 3),)) == (("a", 3), ("b", 2))
    assert _mono_mul((("a", 3),), (("b", 2),)) == (("a", 3), ("b", 2))
