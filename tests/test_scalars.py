from fractions import Fraction as F

import pytest

from hombol.algebra import LinearMap, Vector
from hombol.errors import ParseError
from hombol.scalars import ONE, Scalar, ZERO, parse_scalar


def test_rational_construction_and_identity():
    assert Scalar.rational(0).is_zero()
    assert Scalar.rational(0) == ZERO
    assert Scalar.rational(1) == ONE
    assert Scalar.rational(F(2, 4)) == Scalar.rational(1, 2) == Scalar.rational(F(1, 4), F(1, 2))
    assert Scalar.rational(3).as_fraction() == F(3)


def test_parameter_is_not_rational():
    x = Scalar.parameter("x")
    assert not x.is_rational()
    with pytest.raises(ValueError):
        x.as_fraction()
    assert x.variables() == {"x"}


def test_ring_arithmetic_oracle():
    # (x + 2)(x - 2) = x^2 - 4, computed by hand
    x = Scalar.parameter("x")
    two = Scalar.rational(2)
    assert (x + two) * (x - two) == x * x - Scalar.rational(4)
    # binomial square with a cross term
    y = Scalar.parameter("y")
    assert (x + y) ** 2 == x ** 2 + Scalar.rational(2) * x * y + y ** 2


def test_subtraction_cancels_to_zero():
    x = Scalar.parameter("x")
    lam = Scalar.parameter("lambda")
    expr = x * lam + Scalar.rational(1, 3)
    assert is_native_zero(expr - expr)
    assert not expr.is_zero()


def test_power_cases():
    x = Scalar.parameter("x")
    assert x ** 0 == ONE
    assert x ** 1 == x
    assert (Scalar.rational(2) * x) ** 3 == Scalar.rational(8) * x ** 3
    # a single term at a large exponent, against its closed form
    b = Scalar.parameter("b")
    assert b ** 2**16 == Scalar({(("b", 2**16),): 1})
    assert (Scalar.rational(2, 3) * b) ** 2**10 == Scalar({(("b", 2**10),): F(2**1024, 3**1024)})
    with pytest.raises(ValueError):
        x ** -1


def test_substitute_partial_and_full():
    x, y = Scalar.parameter("x"), Scalar.parameter("y")
    expr = x * y + y
    # unknown names stay symbolic
    assert expr.substitute({"z": F(5)}) == expr
    partial = expr.substitute({"x": F(2)})
    assert partial == Scalar.rational(3) * y
    full = expr.substitute({"x": F(2), "y": F(1, 3)})
    assert full.as_fraction() == F(1)


def test_substitute_with_scalar_replacement():
    x = Scalar.parameter("x")
    t = Scalar.parameter("t")
    assert (x ** 2).substitute({"x": t + ONE}) == t ** 2 + Scalar.rational(2) * t + ONE


def test_evaluate_requires_all_parameters():
    x, y = Scalar.parameter("x"), Scalar.parameter("y")
    expr = x + y
    assert expr.evaluate({"x": F(1), "y": F(2)}) == F(3)
    with pytest.raises(ValueError, match="unbound parameter 'y'"):
        expr.evaluate({"x": F(1)})


def test_str_canonical_layout():
    lam = Scalar.parameter("lambda")
    b = Scalar.parameter("b")
    expr = Scalar.rational(-1, 3) * lam * b ** 2 + Scalar.rational(2)
    assert str(expr) == "-1/3*b^2*lambda + 2"
    assert str(ZERO) == "0"
    assert str(-ONE) == "-1"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", ZERO),
        ("-7", Scalar.rational(-7)),
        ("1/2", Scalar.rational(1, 2)),
        ("x", Scalar.parameter("x")),
        ("2*x^3", Scalar.rational(2) * Scalar.parameter("x") ** 3),
        (
            "-1/3*lambda*b^2 + 2",
            Scalar.rational(-1, 3) * Scalar.parameter("lambda") * Scalar.parameter("b") ** 2
            + Scalar.rational(2),
        ),
        ("x - x", ZERO),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


def test_parse_emit_round_trip():
    for text in ["-1/3*b^2*lambda + 2", "a*b - 1", "x^4", "0", "-x + 1/2"]:
        assert str(parse_scalar(text)) == text


def test_parse_scalar_name_restriction():
    assert parse_scalar("a*b", names={"a", "b"}) == Scalar.parameter("a") * Scalar.parameter("b")
    with pytest.raises(ParseError, match="undeclared symbol 'c'"):
        parse_scalar("a*c", names={"a", "b"})


@pytest.mark.parametrize("bad", ["", "1/0", "x^", "2*", "* x", "x +", "x y", "(x)"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


# -- the public constructor is canonical and exact -------------------------


def test_constructor_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        Scalar({(): 0.1})
    with pytest.raises(TypeError):
        Scalar({(("b", 1),): "2"})


@pytest.mark.parametrize("args", [(0.1,), (0.5,), ("1/2",), (1, 0.5), (1, "2"), (None,)])
def test_rational_rejects_inexact_arguments(args):
    # Scalar.rational(0.1) once stored the binary fraction 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        Scalar.rational(*args)


def test_constructor_drops_zero_exponents():
    s = Scalar({(("b", 0),): 2})
    assert s == Scalar.rational(2) == parse_scalar("2")
    assert s.is_rational()
    assert str(s) == "2"


@pytest.mark.parametrize("mono, error", [((("b", -1),), ValueError), ((("b", 1.0),), TypeError), ((("b", F(1)),), TypeError)])
def test_constructor_rejects_bad_exponents(mono, error):
    with pytest.raises(error):
        Scalar({mono: 2})


def test_constructor_sorts_and_merges_monomials():
    unsorted = Scalar({(("b", 1), ("a", 1)): 2})
    assert unsorted == parse_scalar("2*a*b")
    assert hash(unsorted) == hash(parse_scalar("2*a*b"))
    assert str(unsorted) == "2*a*b"
    assert Scalar({(("b", 1), ("b", 2)): 1}) == parse_scalar("b^3")


def test_constructor_sums_colliding_monomials():
    assert Scalar({(("a", 1), ("b", 1)): 1, (("b", 1), ("a", 1)): F(1, 2)}) == parse_scalar("3/2*a*b")
    assert Scalar({(("b", 1),): 1, (("b", 1), ("c", 0)): -1}).is_zero()
    assert Scalar({(): F(1, 3), (("b", 0),): F(2, 3)}) == ONE


def test_evaluate_rejects_inexact_bindings():
    b = Scalar.parameter("b")
    with pytest.raises(TypeError):
        b.evaluate({"b": 0.1})
    assert b.evaluate({"b": 2}) == F(2)
    assert type(b.evaluate({"b": 2})) is F


# -- coefficient form: an int when the denominator is 1, else a Fraction ---


def coefficients(s):
    """The coefficients of a Scalar, or the one of a nonzero native number,
    which an operator gives for a constant result."""
    if isinstance(s, Scalar):
        return [c for _, c in s.terms()]
    return [s] if s else []


def is_native_zero(x):
    return x == 0 and type(x) is int


@pytest.mark.parametrize(
    "value",
    [
        Scalar.rational(3),
        Scalar.rational(6, 2),
        Scalar.rational(1, 2) * Scalar.rational(2),
        Scalar.rational(1, 3) + Scalar.rational(2, 3),
        Scalar.parameter("b"),
        Scalar.rational(F(3)),
        Scalar.rational(F(3, 2)) ** 0,
        Scalar({(): F(4, 2)}),
    ],
)
def test_integral_coefficients_are_ints(value):
    assert [type(c) for c in coefficients(value)] == [int]


def test_fractional_coefficients_are_fractions():
    half = Scalar.rational(1, 2)
    assert [type(c) for c in coefficients(half)] == [F]
    assert type(half.as_fraction()) is F
    assert type(Scalar.rational(3).as_fraction()) is F
    assert type(ZERO.as_fraction()) is F


def test_a_constant_scalar_equals_and_hashes_like_its_number():
    for q in (0, 1, -1, 7, F(1, 2), F(-3, 7), F(4, 2)):
        s = Scalar.rational(q)
        assert s == q and q == s
        assert hash(s) == hash(q)
        assert len({s, q}) == 1
    assert hash(ZERO) == hash(0) and hash(ONE) == hash(1)
    assert len({Scalar.rational(1), 1, F(1)}) == 1
    assert Scalar.parameter("b") != 0 and Scalar.parameter("b") != 1
    # stores mix numbers and Scalars, and Vector and LinearMap hash their stored values
    numbers = [1, F(-3, 7), 0, F(1, 2)]
    scalars = [Scalar.rational(q) for q in numbers]
    assert Vector(numbers) == Vector(scalars) and hash(Vector(numbers)) == hash(Vector(scalars))
    rows = [numbers, [0, 2, F(5, 3), -1], [F(4, 2), 0, 0, 1], [0, 0, 0, 0]]
    as_numbers, as_scalars = LinearMap(rows), LinearMap([[Scalar.rational(q) for q in row] for row in rows])
    assert as_numbers == as_scalars and hash(as_numbers) == hash(as_scalars)
    assert len({Vector(numbers), Vector(scalars), as_numbers.column(0), Vector([1, 0, 2, 0])}) == 2


def test_int_and_fraction_inputs_build_the_same_scalar():
    for a, b in [(Scalar.rational(3), Scalar.rational(F(3))), (Scalar({(("b", 1),): 3}), Scalar({(("b", 1),): F(3)}))]:
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == str(b)


def test_unit_products_return_the_other_side():
    p = parse_scalar("2/3*b^2 - a + 1")
    assert p * ONE is p
    assert ONE * p is p
    assert p * 1 is p
    assert p * -1 == -p
    assert -1 * p == -p
    assert Scalar.rational(-1) * p == -p
    # the kernels multiply by units with no test of their own
    for one in (ONE, Scalar.rational(1), 1, F(1)):
        assert p * one is p
        assert one * p is p
    for minus_one in (-ONE, Scalar.rational(-1), -1, F(-1)):
        assert p * minus_one == -p
        assert minus_one * p == -p
    assert (-ONE) * (-ONE) == ONE


def test_sums_with_zero_return_the_other_side_and_cancel_to_ZERO():
    # a sum that cancels is the native 0, which the kernels drop by its truth value
    p = parse_scalar("2/3*b^2 - a + 1")
    assert ZERO + p is p
    assert p + ZERO is p
    assert is_native_zero(p + (-p))
    assert is_native_zero(p - p)
    assert is_native_zero(Scalar.rational(1, 2) - F(1, 2))


def test_result_coefficients_are_ints_exactly_when_integral():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = ("a", "b")
    monomials = st.lists(st.tuples(st.sampled_from(names), st.integers(0, 2)), max_size=2)
    coeffs = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=4))
    scalars = st.dictionaries(monomials.map(tuple), coeffs, max_size=4).map(Scalar)

    def canonical(s):
        return all(type(c) in (int, F) and (type(c) is int) == (F(c).denominator == 1) for c in coefficients(s))

    @hypothesis.given(scalars, scalars, st.integers(0, 3))
    def check(x, y, k):
        for result in (x, x + y, x - y, x * y, x**k, -x):
            assert canonical(result)

    check()
