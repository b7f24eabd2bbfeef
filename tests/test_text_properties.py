"""Property tests of the text formats (needs hypothesis; skipped without it).

Random polynomials print through the one signed-term renderer exactly as the
reference layout of test_round_trip describes, parse back to themselves, and
random small algebras, maps and constraint systems survive emit ∘ parse ∘
emit byte for byte.  Their basis labels, parameters and unknowns are drawn
from a pool of good and bad names, so that each object is either refused
where it is made or emitted, with one of the parser's messages, or read back
equal.
"""

import re
from fractions import Fraction
from functools import partial

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_round_trip import reference_render

from hombol.algebra import HomAlgebra, LinearMap, Vector
from hombol.errors import ParseError
from hombol.morphisms import ConstraintSystem
from hombol.scalars import Scalar, parse_scalar
from hombol.serialization import (
    emit_algebra,
    emit_constraints,
    emit_map,
    format_vector,
    parse_algebra,
    parse_constraints,
    parse_map,
)

given, settings = hypothesis.given, hypothesis.settings

NAMES = ("a", "b", "lambda", "x_1")
# the basis labels, parameters and unknowns of the round trips below: the
# identifiers hold the names above, so that a label may be a parameter of a
# cell, and every keyword of the three formats, the constraint keywords in a
# branch of their own so that they are drawn often; drawn lists repeat and overlap
IDENTIFIERS = st.sampled_from((*NAMES, "e1", "e2", "t")) | st.sampled_from(
    ("dim", "basis", "alpha", "binary", "ternary", "complete")) | st.sampled_from(("params", "unknowns"))
POOL = IDENTIFIERS | st.sampled_from(("e 1", "1x", ""))
# what the parsers say about such names, with no line for an object
PARSER_MESSAGE = re.compile(
    r"bad (basis label|parameter name|unknown name) '.*'|basis needs \d+ distinct labels"
    r"|unknowns takes distinct names|(basis labels|unknowns) and parameters overlap"
)
# derandomized, so that tier-1 runs the same cases each time
ROUND_TRIP = settings(max_examples=100, deadline=None, derandomize=True)

monomials = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 4)), max_size=3).map(
    lambda pairs: tuple(sorted(dict(pairs).items()))
)
coefficients = st.fractions(max_denominator=50).filter(bool) | st.sampled_from((Fraction(1), Fraction(-1)))
scalars = st.dictionaries(monomials, coefficients, max_size=4).map(Scalar)


@given(scalars)
def test_scalar_text_round_trips(s):
    text = str(s)
    assert text == reference_render([(s, None)])
    assert parse_scalar(text) == s
    assert parse_scalar(text, names=s.variables()) == s


@given(st.lists(scalars, min_size=1, max_size=4))
def test_vector_text_matches_reference(coords):
    labels = tuple(f"e{i + 1}" for i in range(len(coords)))
    assert format_vector(Vector(coords), labels) == reference_render(zip(coords, labels))


def _cells(draw, dim, arity):
    if arity == 0:
        return tuple(draw(scalars) if draw(st.booleans()) else Scalar() for _ in range(dim))
    return tuple(_cells(draw, dim, arity - 1) for _ in range(dim))


def _round_trip(make, emit, parse):
    """None when ``make()`` or its emission is refused with a parser message;
    else the object and its document read back, which emits the same bytes."""
    try:
        obj = make()
        text = emit(obj)
    except ParseError as exc:
        assert exc.line is None and PARSER_MESSAGE.fullmatch(exc.message), exc
        return None
    back = parse(text)
    assert emit(back) == text
    return obj, back


def _names(draw, low=0, high=3):
    """Names of the pool, or of its identifiers, each given once or not."""
    pool = draw(st.sampled_from((POOL, IDENTIFIERS)))
    return tuple(draw(st.lists(pool, min_size=low, max_size=high, unique=draw(st.booleans()))))


def _basis(draw, dim):
    """Names of the pool: ``dim`` of them three times in four."""
    size = dim if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
    return _names(draw, size, size)


@st.composite
def algebras(draw):
    dim = draw(st.integers(1, 3))
    twist = LinearMap(_cells(draw, dim, 1)) if draw(st.booleans()) else None
    named = {"basis": _basis(draw, dim), "params": _names(draw)} if draw(st.booleans()) else {}
    return partial(HomAlgebra, dim, binary=_cells(draw, dim, 2), ternary=_cells(draw, dim, 3), twist=twist, **named)


@settings(ROUND_TRIP, max_examples=40)
@given(algebras())
def test_algebra_documents_round_trip(make):
    done = _round_trip(make, emit_algebra, parse_algebra)
    if done:
        alg, back = done
        assert back == alg and back.params == alg.all_variables()
        assert (back.binary, back.ternary, back.twist) == (alg.binary, alg.ternary, alg.twist)


@st.composite
def maps(draw):
    dim = draw(st.integers(1, 3))
    return LinearMap(_cells(draw, dim, 1)), _basis(draw, dim), _names(draw)


@ROUND_TRIP
@given(maps())
def test_map_documents_round_trip(args):
    done = _round_trip(lambda: args, lambda map_args: emit_map(*map_args), parse_map)
    if done:
        (m, basis, params), back = done
        assert back == (m, basis, frozenset(params) | m.variables())


@st.composite
def systems(draw):
    dim = draw(st.integers(0, 2))
    unknowns = _names(draw, dim * dim, dim * dim)
    params = frozenset(_names(draw))
    names = sorted({*unknowns, *params})
    monomial = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 3)), max_size=2).map(
        lambda pairs: tuple(sorted(dict(pairs).items()))) if names else st.just(())
    # a bare name, alone on its line, is the equation a keyword name breaks first
    bare = st.sampled_from(names).map(Scalar.parameter) if names else st.nothing()
    equations = st.lists(st.dictionaries(monomial, coefficients, max_size=3).map(Scalar) | bare, max_size=3)
    return partial(ConstraintSystem, dim=dim, unknowns=unknowns, params=params, equations=tuple(draw(equations)))


@settings(ROUND_TRIP, max_examples=200)
@given(systems())
def test_constraint_documents_round_trip(make):
    done = _round_trip(make, emit_constraints, parse_constraints)
    if done:
        system, back = done
        assert back == system
