"""Identity sides evaluated factored against the sides as written.

``_factor`` rewrites a*X + b*X as (a + b)*X inside every sum, and the table
evaluator evaluates that form.  The identity text, ``Identity.lhs``/``rhs``
and the multilinearity check are left as written.  Three checks hold the
rewrite to its value:

* algebra-free: the factored node and the node as written expand
  (``identities._expand``) to the same signed, bracketed monomials;
* on algebras: the engine's tables of the factored side equal the tables
  of the side as written under the per-tuple reference evaluator of
  ``test_tables``, and so do checks and their counterexamples;
* on built-in sides: only ``malcev_linearized`` has a shared operand, so
  every other side comes back unchanged.
"""

import random
from fractions import Fraction as F

import pytest

from test_kernels import CASES
from test_round_trip import _algebra
from test_tables import SAGLE_DOC, catalog, check_identity, octonions, sides, tabulate

from hombol import identities as new
from hombol.algebra import HomAlgebra, tensor
from hombol.identities import (
    SUITES,
    Binary,
    CyclicSum,
    ScalarMul,
    Sum,
    Ternary,
    Var,
    _expand,
    _factor,
    format_node,
    parse_identity,
)
from hombol.serialization import parse_algebra

CATALOG = catalog()
MALCEV = next(i for i in SUITES["malcev"].identities if i.name == "malcev_linearized")

# a skew algebra that is not Malcev; its counterexample was recorded before
# the sides were evaluated factored
SKEW_DOC = "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = e2\nbinary e2 e3 = e1\n"

# hand-written identities whose sides factor: shared left and right
# operands, scalar prefixes, ternary terms sharing two slots, groups of
# different sizes and sums inside the summed operands
FACTORING = [
    "2 x*(y*z) - 3 x*(z*y) + (y*z)*x - 1/2 (z*y)*x = x*(y*z) + x*(z*y)",
    "{x,y,z*w} - {x,y,w*z} + {z*w,x,y} = 2 {x,A(y),z}*w - {x,A(y),z}*w + {w,y,z}*x",
    "(x*y)*(z*w) + (y*x)*(z*w) + ((x*y)*z)*w + ((y*x)*z)*w = cyc(x,y,z; (x*y)*z)*w + (x*(y*z))*w",
    "{x,y,z} + {y,x,z} + {x,y,z} = 3 {A^2(x),y,z} - 1/3 {A^2(x),y,A(z)}",
]


def _monomials(node):
    return {m: c for m, c in _expand(node).items() if c}


def _built_in_sides():
    return [(suite, ident, side) for suite in SUITES.values() for ident in suite.identities for side in (ident.lhs, ident.rhs)]


def _products(node):
    return sum(_products(part) for part in new._children(node)) + isinstance(node, (Binary, Ternary))


def relabelled_octonions():
    """The octonion cross product with its basis shuffled, as the benchmark's
    octonion-sparse workload has it."""
    alg = octonions()
    perm = list(range(7))
    random.Random("relabelled").shuffle(perm)
    back = {p: i for i, p in enumerate(perm)}

    def cell(idx):
        i, j = (back[k] for k in idx)
        return tuple(alg.binary[i][j][back[k]] for k in range(7))

    return HomAlgebra(7, binary=tensor(7, 2, cell))


# --- what the rewrite leaves alone ------------------------------------------------


def test_only_malcev_linearized_has_a_side_to_factor():
    for suite, ident, side in _built_in_sides():
        if ident.name == "malcev_linearized":
            assert _factor(side) != side
        else:
            assert _factor(side) == side, f"{suite.name}/{ident.name}: {format_node(_factor(side))}"


def test_malcev_linearized_factors_into_fewer_products():
    lhs, rhs = _factor(MALCEV.lhs), _factor(MALCEV.rhs)
    assert format_node(lhs) == "(x*y)*(w*z) + (y*(w*z))*x + ((w*z)*x + (x*z)*w)*y + (w*y)*(x*z) + (y*(x*z))*w"
    assert format_node(rhs) == "((x*y)*z + (y*z)*x + (z*x)*y)*w + ((w*y)*z + (y*z)*w + (z*w)*y)*x"
    assert [len(side.terms) for side in (MALCEV.lhs, MALCEV.rhs, lhs, rhs)] == [6, 6, 5, 2]
    # the identity as parsed keeps its text and its variables
    assert f"{format_node(MALCEV.lhs)} = {format_node(MALCEV.rhs)}" in new._BUILTIN_TEXT["malcev"]
    assert MALCEV.variables == ("x", "y", "w", "z")
    assert _factor(lhs) == lhs and _factor(rhs) == rhs


def test_a_malcev_check_on_the_octonions_makes_at_most_14000_binary_products(monkeypatch):
    calls = []
    kernel = HomAlgebra._binary

    def counted(self, u, v):
        calls.append(None)
        return kernel(self, u, v)

    alg = relabelled_octonions()
    monkeypatch.setattr(HomAlgebra, "_binary", counted)
    assert new.check_identity(alg, MALCEV) is None
    # 25,128 with every term taking its own products
    assert len(calls) <= 14_000


# --- the rewrite keeps the value -------------------------------------------------------


@pytest.mark.parametrize("text", FACTORING)
def test_factoring_identities_do_factor(text):
    ident = parse_identity(text)
    for side in (ident.lhs, ident.rhs):
        assert _products(_factor(side)) < _products(side)


@pytest.mark.parametrize(
    "side",
    [side for _, _, side in _built_in_sides()]
    + [side for text in FACTORING for side in (parse_identity(text).lhs, parse_identity(text).rhs)],
    ids=lambda side: format_node(side)[:40],
)
def test_factored_nodes_expand_to_the_nodes_as_written(side):
    assert _monomials(_factor(side)) == _monomials(side)


def test_expansion_tells_a_wrong_factoring_apart():
    # a coefficient moved to the wrong operand, or a term dropped, is seen
    x, y, z = Var("x"), Var("y"), Var("z")
    written = Sum((ScalarMul(F(2), Binary(x, z)), Binary(y, z)))
    assert _monomials(Binary(Sum((ScalarMul(F(2), x), y)), z)) == _monomials(written)
    assert _monomials(Binary(Sum((x, ScalarMul(F(2), y))), z)) != _monomials(written)
    assert _monomials(Binary(x, z)) != _monomials(written)
    assert _monomials(CyclicSum(("x", "y", "z"), Binary(x, y))) != _monomials(Binary(x, y))


def _assert_factored_tables_agree(alg, max_variables):
    """Every built-in side as written, by the reference evaluator, against
    the engine's tables of its factored form.  Sides with more variables than
    the cap still run when they factor, since those are the ones that
    change."""
    for side, variables in sides():
        if len(variables) <= max_variables or _factor(side) != side:
            want = tabulate(side, alg, variables)
            assert new.tabulate(_factor(side), alg, variables) == want, format_node(side)


@pytest.mark.parametrize("dim, seed", CASES)
@pytest.mark.parametrize("symbolic", [False, True], ids=["rational", "symbolic"])
def test_factored_sides_tabulate_like_the_sides_as_written_on_seeded_tensors(dim, seed, symbolic):
    _assert_factored_tables_agree(_algebra(dim, seed, symbolic), 5 if dim == 3 and not symbolic else 3)


@pytest.mark.parametrize("name, alg", CATALOG, ids=[name for name, _ in CATALOG])
def test_factored_sides_tabulate_like_the_sides_as_written_on_the_catalog(name, alg):
    _assert_factored_tables_agree(alg, 5)


def test_factored_sides_tabulate_like_the_sides_as_written_on_relabelled_octonions():
    _assert_factored_tables_agree(relabelled_octonions(), 3)


@pytest.mark.parametrize("text", FACTORING)
def test_factoring_identities_check_like_the_per_tuple_evaluator(text):
    ident = parse_identity(text)
    for alg in (_algebra(3, 1, symbolic=False), _algebra(3, 2, symbolic=True), parse_algebra(SAGLE_DOC)):
        for e in (0, 1, 2):
            assert new.check_identity(alg, ident, e) == check_identity(alg, ident, e)


def test_a_skew_algebra_that_is_not_malcev_fails_where_the_sides_as_written_fail():
    alg = parse_algebra(SKEW_DOC)
    got = new.check_identity(alg, MALCEV)
    assert got == check_identity(alg, MALCEV)
    assert (got.indices, str(got.residual)) == ((0, 0, 2, 1), "(1, 0, 0)")
    assert new.check_identity(parse_algebra(SAGLE_DOC), MALCEV) is None
