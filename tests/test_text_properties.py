"""Property tests of the text formats (needs hypothesis; skipped without it).

Random polynomials print through the one signed-term renderer exactly as the
reference layout of test_round_trip describes, parse back to themselves, and
random small algebras survive emit ∘ parse ∘ emit byte for byte.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_round_trip import reference_render

from hombol.algebra import HomAlgebra, LinearMap, Vector
from hombol.scalars import Scalar, parse_scalar
from hombol.serialization import emit_algebra, format_vector, parse_algebra

given, settings = hypothesis.given, hypothesis.settings

NAMES = ("a", "b", "lambda", "x_1")

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


@st.composite
def algebras(draw):
    dim = draw(st.integers(1, 3))
    twist = LinearMap(_cells(draw, dim, 1)) if draw(st.booleans()) else None
    return HomAlgebra(dim, binary=_cells(draw, dim, 2), ternary=_cells(draw, dim, 3), twist=twist)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_algebra_documents_round_trip(alg):
    text = emit_algebra(alg)
    back = parse_algebra(text)
    assert emit_algebra(back) == text
    assert (back.binary, back.ternary, back.twist) == (alg.binary, alg.ternary, alg.twist)
