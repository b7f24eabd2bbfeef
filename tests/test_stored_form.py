"""The one stored form of maps and algebras.

A LinearMap stores only the sparse vector of each column, and a HomAlgebra
only that of each product cell; ``rows``, ``binary`` and ``ternary`` are laid
out from them when read.  The builders hand their sparse vectors to the
trusted constructors, so each builder's result is checked against what the
public dense constructors make of the dense form it reads back, and every
stored entry is checked to be a nonzero int, a Fraction that is not
integral, or a Scalar that is not constant.  The dense views and the
identity evaluators still give every coordinate as a Scalar.
"""

import pytest

from test_sparse import assert_sparse
from test_tables import SAGLE_DOC

from hombol.algebra import HomAlgebra, LinearMap, Vector
from hombol.catalog import get, names
from hombol.constructions import malcev_to_bol, nth_derived, self_twist, yau_twist
from hombol.identities import SUITES, evaluate, tabulate
from hombol.scalars import Scalar
from hombol.serialization import parse_algebra

# Sagle's algebra scaled by an automorphism: diag(1, t, s, t*s) preserves it
SAGLE_SCALING = LinearMap.from_columns(((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, -3, 0), (0, 0, 0, -6)))

SKEW_DOC = (
    "dim 3\nparams p\nbasis u v w\ncomplete skew-binary\ncomplete skew-ternary\n"
    "binary u v = w\nbinary v w = p*u - u\nternary u v w = 1/2*v\nternary w u u = -p*w\n"
    "alpha u = u\nalpha v = v + p*w\nalpha w = w\n"
)


def _catalog(name):
    return get(name, sign="-") if name in ("A3", "HB_A3") else get(name)


def _built_algebras():
    """(builder, algebra) for every builder of algebras."""
    sagle = parse_algebra(SAGLE_DOC)
    hb2 = get("HB_A2")
    yield "parse_algebra", parse_algebra(SKEW_DOC)
    yield "parse_algebra sagle", sagle
    for name in names():
        yield f"catalog.get {name}", _catalog(name)
    yield "yau_twist", yau_twist(sagle, SAGLE_SCALING)
    yield "self_twist", self_twist(hb2, hb2.twist, 2)
    yield "nth_derived", nth_derived(hb2, 2)
    yield "nth_derived zero order", nth_derived(get("A3", sign="+"), 0)
    yield "malcev_to_bol", malcev_to_bol(sagle)
    yield "malcev_to_bol beta", malcev_to_bol(sagle, SAGLE_SCALING)
    yield "replace twist", hb2.replace(twist=LinearMap.identity(2))
    yield "replace ternary", hb2.replace(ternary=None)
    yield "replace binary", sagle.replace(binary=sagle.binary, params={"q"})


def _built_maps():
    """(builder, map) for every builder of maps."""
    beta = get("HB_A2").twist
    yield "identity", LinearMap.identity(3)
    yield "from_columns", LinearMap.from_columns(((1, 0, 0), (Scalar.parameter("a"), 0, 0), (0, 0, -1)))
    yield "compose", beta.compose(beta)
    yield "compose to zero", LinearMap(((0, 1), (0, 0))).compose(LinearMap(((0, 1), (0, 0))))
    yield "power", beta.power(5)
    yield "power zero", beta.power(0)
    yield "twist of nth_derived", nth_derived(get("HB_A2"), 1).twist


ALGEBRAS = dict(_built_algebras())
MAPS = dict(_built_maps())


@pytest.mark.parametrize("builder", sorted(MAPS))
def test_a_built_map_equals_the_map_of_its_rows(builder):
    m = MAPS[builder]
    dense = LinearMap(m.rows)
    assert dense == m and hash(dense) == hash(m)
    assert dense.rows == m.rows and dense.variables() == m.variables()
    assert LinearMap.from_columns(tuple(m.column(j).coords for j in range(m.dim))) == m
    for col in m._cols:
        assert_sparse(col)


@pytest.mark.parametrize("builder", sorted(ALGEBRAS))
def test_a_built_algebra_equals_the_algebra_of_its_tensors(builder):
    alg = ALGEBRAS[builder]
    dense = HomAlgebra(alg.dim, alg.basis, alg.params, alg.binary, alg.ternary, LinearMap(alg.twist.rows))
    assert dense == alg
    assert hash(dense.twist) == hash(alg.twist)
    assert (dense.binary, dense.ternary) == (alg.binary, alg.ternary)
    assert list(dense.cells()) == list(alg.cells())
    assert dense.all_variables() == alg.all_variables()
    for v in [cell for _, _, cell in alg._cells()] + list(alg.twist._cols):
        assert_sparse(v)


def test_a_cell_of_the_dense_form_is_the_stored_cell_laid_out():
    alg = ALGEBRAS["parse_algebra"]
    stored = dict(((kind, idx), cell) for kind, idx, cell in alg._cells())
    for kind, idx, coords in alg.cells():
        assert {k: c for k, c in enumerate(coords) if not c.is_zero()} == stored[kind, idx]
    # u*v = w, so v*u = -w by the skew completion; {w,u,u} = -p*w
    assert stored["binary", (1, 0)] == {2: -Scalar.rational(1)}
    assert stored["ternary", (2, 0, 0)] == {2: -Scalar.parameter("p")}
    assert stored["binary", (0, 0)] == {}


def test_replace_shares_the_products_it_does_not_replace():
    alg = ALGEBRAS["parse_algebra"]
    twisted = alg.replace(twist=LinearMap.identity(3))
    assert twisted._products["binary"] is alg._products["binary"]
    assert twisted._products["ternary"] is alg._products["ternary"]
    untwisted = alg.replace(ternary=None)
    assert untwisted._products["binary"] is alg._products["binary"]
    assert not any(cell for kind, _, cell in untwisted._cells() if kind == "ternary")


def _flat(t):
    """The coordinates of nested tuples of Scalars or of Vectors."""
    if isinstance(t, Vector):
        return list(t.coords)
    if isinstance(t, tuple):
        return [c for part in t for c in _flat(part)]
    return [t]


@pytest.mark.parametrize("builder", sorted(ALGEBRAS))
def test_the_public_views_give_every_coordinate_as_a_scalar(builder):
    alg = ALGEBRAS[builder]
    n = alg.dim
    basis = [Vector.basis(i, n) for i in range(n)]
    jacobi = next(i for i in SUITES["hom_lie"].identities if i.name == "hom_jacobi")
    bracket = next(i for i in SUITES["bol"].identities if i.name == "binary_derivation")
    env = {name: basis[k % n] + basis[(k + 1) % n] for k, name in enumerate(bracket.variables)}
    views = {
        "coords": [alg.eval_binary(u, v) for u in basis for v in basis] + basis,
        "rows": alg.twist.rows,
        "binary": alg.binary,
        "ternary": alg.ternary,
        "cells": tuple(coords for _, _, coords in alg.cells()),
        "evaluate": (evaluate(bracket.lhs, alg, env), evaluate(bracket.rhs, alg, env, 2)),
        "tabulate": tabulate(jacobi.lhs, alg, jacobi.variables),
    }
    for view, value in views.items():
        coords = _flat(tuple(value))
        assert coords and all(isinstance(c, Scalar) for c in coords), view


@pytest.mark.parametrize("builder", sorted(MAPS))
def test_the_rows_and_columns_of_a_map_are_scalars(builder):
    m = MAPS[builder]
    coords = _flat(m.rows) + _flat(tuple(m.column(j) for j in range(m.dim)))
    assert all(isinstance(c, Scalar) for c in coords)
