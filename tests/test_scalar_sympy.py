"""Scalar ring laws against sympy (needs hypothesis and sympy; skipped without them).

Sums, products, powers, substitutions and evaluations of small random
polynomials must equal what sympy.expand makes of the same expressions, also
where one operand is an int or a Fraction; an operator's result must be a
native number exactly when it is constant.  A product with a single-term
side, which shifts the other side's monomials instead of accumulating term
products, must also equal the general accumulation, on both sides of the
three-term guard behind which a long polynomial scales each distinct
coefficient once and shifts by a single name without a merge.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")

from hombol.scalars import _LONG, Scalar, _mono_canon, _mono_mul, _shifted

given = hypothesis.given

NAMES = ("a", "b", "lambda")
OTHER_NAMES = ("c", "d")  # names that the polynomials of ``scalars`` never use
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES + OTHER_NAMES + ("aa",)}

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


# -- long polynomials: distinct-coefficient scaling and single-name shifts --
#
# A side of three or more terms scales once per distinct coefficient and
# shifts by a single-factor monomial without a merge; one or two terms keep
# the per-term comprehension.  Both sides of that guard are checked against
# sympy and against a general accumulation written here.

# coefficients drawn from a few values, so that a long polynomial repeats
# ints and non-integral Fractions, as distinct but equal objects too
repeated_coefficients = st.sampled_from(
    (1, -1, 2, -3, Fraction(1, 8), Fraction(-1, 8), Fraction(3, 7), Fraction(-5, 2))
).map(lambda c: Fraction(c.numerator, c.denominator) if type(c) is Fraction else c)
scale_factors = st.sampled_from((1, -1, 2, -3, 7, Fraction(1, 8), Fraction(-3, 7), Fraction(5, 2)))


def polynomials(sizes):
    """Polynomials with exactly one of the given numbers of terms, over
    monomials that may have one, two or three factors."""
    return st.sampled_from(sizes).flatmap(
        lambda n: st.dictionaries(monomials, repeated_coefficients, min_size=n, max_size=n).map(Scalar)
    )


# one term and _LONG - 1 take the short path, _LONG and 12 the long one
short_or_long = polynomials((1, _LONG - 1, _LONG, 12))


def scaled_by_accumulation(x, q):
    """x*q term by term, summed into a fresh map."""
    acc = {}
    for mono, c in x.terms():
        acc[mono] = acc.get(mono, 0) + c * q
    return Scalar(acc)


@given(short_or_long, scale_factors)
def test_scaled_polynomials(x, q):
    for result in (x * q, q * x, x._scaled(q)):
        assert same(result, to_sympy(x) * to_sympy(q))
        assert result == scaled_by_accumulation(x, q)
        assert native_exactly_when_constant(result)
        if isinstance(result, Scalar):
            assert all(type(c) is int or c.denominator != 1 for _, c in result.terms())


def test_scaling_a_long_polynomial_makes_one_product_per_distinct_coefficient():
    x = Scalar({(("b", k),): Fraction(1, 8) for k in range(1, 40)})  # equal, distinct objects
    assert len({id(c) for _, c in x.terms()}) == 39
    y = x * Fraction(-3, 7)
    assert y == Scalar({(("b", k),): Fraction(-3, 56) for k in range(1, 40)})
    assert len({id(c) for _, c in y.terms()}) == 1
    z = Scalar({(("b", 3),): 3, (("b", 2),): 1, (("b", 1),): 1, (): 1}) * Fraction(1, 2)
    half = Fraction(1, 2)
    assert z.terms() == (((("b", 3),), Fraction(3, 2)), ((("b", 2),), half), ((("b", 1),), half), ((), half))
    # products that are integral are stored as ints
    assert (z * 2).terms() == (((("b", 3),), 3), ((("b", 2),), 1), ((("b", 1),), 1), ((), 1))
    assert all(type(c) is int for _, c in (z * 2).terms())


single_factor_terms = st.tuples(st.sampled_from(NAMES + OTHER_NAMES), st.integers(1, 5), term_coefficients).map(
    lambda t: single_term(((t[0], t[1]),), t[2])
)


@given(short_or_long, single_factor_terms)
def test_single_name_shifts(x, term):
    # the name is one the polynomial has or one it lacks, sorting before,
    # between or after its names
    check_single_term_product(x, term)


@given(short_or_long, st.data())
def test_single_name_shifts_by_a_name_the_polynomial_has(x, data):
    name = data.draw(st.sampled_from(sorted(x.variables()) or NAMES))
    term = single_term(((name, data.draw(st.integers(1, 5))),), data.draw(term_coefficients))
    check_single_term_product(x, term)


@given(short_or_long, monomials_over(NAMES + OTHER_NAMES).filter(lambda m: len(m) > 1), term_coefficients)
def test_multi_factor_shifts(x, mono, coeff):
    # check_single_term_product puts the single term on either side
    check_single_term_product(x, single_term(mono, coeff))


def test_single_name_shifts_of_a_long_polynomial():
    # monomials of one and two factors, and none
    x = Scalar({(("a", 1), ("b", 1)): 1, (("a", 2),): 1, (("b", 3),): 1, (("a", 1), ("lambda", 1)): 1, (): 5})
    expected = {
        # the first of two factors, merged; inserted before b
        "a": {(("a", 2), ("b", 1)): 1, (("a", 3),): 1, (("a", 1), ("b", 3)): 1,
              (("a", 2), ("lambda", 1)): 1, (("a", 1),): 5},
        # the last factor, merged; appended after a, inserted before lambda
        "b": {(("a", 1), ("b", 2)): 1, (("a", 2), ("b", 1)): 1, (("b", 4),): 1,
              (("a", 1), ("b", 1), ("lambda", 1)): 1, (("b", 1),): 5},
        # a name before every other one, and one between b and lambda
        "aa": {(("a", 1), ("aa", 1), ("b", 1)): 1, (("a", 2), ("aa", 1)): 1, (("aa", 1), ("b", 3)): 1,
               (("a", 1), ("aa", 1), ("lambda", 1)): 1, (("aa", 1),): 5},
        "c": {(("a", 1), ("b", 1), ("c", 1)): 1, (("a", 2), ("c", 1)): 1, (("b", 3), ("c", 1)): 1,
              (("a", 1), ("c", 1), ("lambda", 1)): 1, (("c", 1),): 5},
    }
    for name, terms in expected.items():
        term = Scalar.parameter(name)
        assert x._times_term(((name, 1),), 1) == x * term == term * x == Scalar(terms) == accumulated(x, term)
        assert same(x * term, to_sympy(x) * SYMBOLS[name])


@given(st.lists(monomials, min_size=1, max_size=6), st.sampled_from(NAMES + OTHER_NAMES + ("aa",)), st.integers(1, 4))
def test_shifted_monomials_are_the_merged_ones(monos, name, e):
    m = ((name, e),)
    assert _shifted(monos, m) == [_mono_mul(k, m) for k in monos] == [_mono_canon(k + m) for k in monos]


def test_shifted_monomials_at_each_position():
    k = (("a", 1), ("b", 2), ("lambda", 1))
    assert _shifted([(), k], (("a", 2),)) == [(("a", 2),), (("a", 3), ("b", 2), ("lambda", 1))]
    assert _shifted([k], (("aa", 1),)) == [(("a", 1), ("aa", 1), ("b", 2), ("lambda", 1))]
    assert _shifted([k], (("b", 3),)) == [(("a", 1), ("b", 5), ("lambda", 1))]
    assert _shifted([k], (("c", 1),)) == [(("a", 1), ("b", 2), ("c", 1), ("lambda", 1))]
    assert _shifted([k], (("lambda", 2),)) == [(("a", 1), ("b", 2), ("lambda", 3))]
    assert _shifted([k], (("A", 1),)) == [(("A", 1),) + k]
    assert _shifted([k], (("z", 1),)) == [k + (("z", 1),)]
