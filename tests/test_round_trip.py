"""parse ∘ emit round trips on random algebras, maps and constraint systems.

Every emitter writes its scalars through one signed-term renderer, and every
reader goes through one token reader and one document loop.  The seeded
dim 3–5 tensors of test_kernels (about 30% zero cells, rational and
symbolic entries) must come back from parse(emit(x)) equal and re-emit byte
for byte, and the renderer must agree with the reference layout below,
written from the format's description rather than from the renderer.
"""

import random

import pytest

from test_kernels import CASES, _coords, _matrix, _tensor

from hombol.algebra import HomAlgebra, LinearMap, Vector
from hombol.morphisms import generate_constraints
from hombol.scalars import ZERO, parse_scalar
from hombol.serialization import (
    emit_algebra,
    emit_constraints,
    emit_map,
    format_vector,
    parse_algebra,
    parse_constraints,
    parse_map,
)


def reference_render(scalars_and_labels):
    """'c*x^2*y*label' terms in display order, the first with a bare '-' if
    negative, the rest joined by ' + ' or ' - '; a unit magnitude is left
    out unless the term would be empty; nothing at all is '0'."""
    text = ""
    for scalar, label in scalars_and_labels:
        for mono, coeff in scalar.terms():
            names = [name if e == 1 else f"{name}^{e}" for name, e in mono]
            if label is not None:
                names.append(label)
            if abs(coeff) == 1 and names:
                body = "*".join(names)
            else:
                body = "*".join([str(abs(coeff))] + names)
            if not text:
                text = ("-" if coeff < 0 else "") + body
            else:
                text += (" - " if coeff < 0 else " + ") + body
    return text or "0"


def _rational_only(cells):
    if isinstance(cells, tuple):
        return tuple(_rational_only(c) for c in cells)
    return cells if cells.is_rational() else ZERO


def _algebra(dim, seed, symbolic):
    rng = random.Random(seed)
    parts = (_tensor(rng, dim, 2), _tensor(rng, dim, 3), _matrix(rng, dim))
    if not symbolic:
        parts = tuple(_rational_only(p) for p in parts)
    binary, ternary, twist = parts
    return HomAlgebra(dim, binary=binary, ternary=ternary, twist=LinearMap(twist))


@pytest.mark.parametrize("symbolic", [False, True], ids=["rational", "symbolic"])
@pytest.mark.parametrize("dim, seed", CASES)
def test_algebra_documents_round_trip(dim, seed, symbolic):
    alg = _algebra(dim, seed, symbolic)
    text = emit_algebra(alg)
    back = parse_algebra(text)
    assert emit_algebra(back) == text
    assert (back.binary, back.ternary, back.twist) == (alg.binary, alg.ternary, alg.twist)
    assert back.params == alg.all_variables()


@pytest.mark.parametrize("dim, seed", CASES)
def test_map_documents_round_trip(dim, seed):
    m = LinearMap(_matrix(random.Random(seed), dim))
    basis = tuple(f"b{i}" for i in range(dim))
    text = emit_map(m, basis, params={"unused"})
    back, labels, params = parse_map(text)
    assert (back, labels, params) == (m, basis, frozenset({"unused"}) | m.variables())
    assert emit_map(back, labels, params) == text


@pytest.mark.parametrize("seed", [1, 2])
def test_constraint_documents_round_trip(seed):
    system = generate_constraints(_algebra(3, seed, symbolic=True))
    text = emit_constraints(system)
    back = parse_constraints(text)
    assert back.equations == system.equations
    assert emit_constraints(back) == text


@pytest.mark.parametrize("dim, seed", CASES)
def test_renderer_matches_the_reference_layout(dim, seed):
    rng = random.Random(seed)
    labels = tuple(f"e{i + 1}" for i in range(dim))
    for _ in range(20):
        coords = _coords(rng, dim)
        for c in coords:
            assert str(c) == reference_render([(c, None)])
            assert parse_scalar(str(c)) == c
        assert format_vector(Vector(coords), labels) == reference_render(zip(coords, labels))
    # products and powers give higher degrees, exponents and mixed signs
    a, b = _coords(rng, 2)
    for s in (a * b, (a - b) ** 3, -(a * a * b) + 7):
        assert str(s) == reference_render([(s, None)])
        assert parse_scalar(str(s)) == s
