"""Sides with shared operands and repeated shapes.

Each identity is compiled once into a plan (``identities._compile``) that
interns every node modulo the names of its variables, as a step over their
positions, and the table evaluator memoizes each step's table with its
positions' domains and the scope.  So nodes that differ only in the names
of their variables share one table: the rotations of a ``cyc``, the terms
of a written-out Jacobian, the brackets of ``malcev_linearized``.  The
checks here:

* the plan: a node and any renaming of its variables compile to equal
  steps, and a check builds no identity node;
* products: a written-out Jacobian makes the products of one of its terms;
* on algebras: the engine's checks, tables and values of such sides equal
  those of the per-tuple reference evaluator of ``test_tables``;
* algebra-free: the expansion (``identities._expand``) that the symmetry
  search reads tells a wrong regrouping of a side apart.
"""

import itertools
import random
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

from test_kernels import CASES
from test_round_trip import _algebra
from test_tables import EXPONENTS, SAGLE_DOC, catalog, check_identity, evaluate, octonions, tabulate

from hombol import identities as new
from hombol.algebra import HomAlgebra, Vector, tensor
from hombol.constructions import malcev_to_bol
from hombol.identities import (
    SUITES,
    Binary,
    CyclicSum,
    Node,
    ScalarMul,
    Sum,
    Var,
    _compile,
    _expand,
    check_suite,
    format_node,
    parse_identity,
    parse_suite,
)
from hombol.serialization import parse_algebra

MALCEV = next(i for i in SUITES["malcev"].identities if i.name == "malcev_linearized")

# a skew algebra that is not Malcev; its counterexample was recorded while
# the evaluator still factored shared operands out of the sides
SKEW_DOC = "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = e2\nbinary e2 e3 = e1\n"

# hand-written identities whose sums share operands: shared left and right
# operands, scalar prefixes, ternary terms sharing two slots, groups of
# different sizes, and terms and cyc rotations of one shape; the last has a
# nested cyc, a cyc whose names come in another order than in its body, and
# a body with a variable from outside its cyc
FACTORING = [
    "2 x*(y*z) - 3 x*(z*y) + (y*z)*x - 1/2 (z*y)*x = x*(y*z) + x*(z*y)",
    "{x,y,z*w} - {x,y,w*z} + {z*w,x,y} = 2 {x,A(y),z}*w - {x,A(y),z}*w + {w,y,z}*x",
    "(x*y)*(z*w) + (y*x)*(z*w) + ((x*y)*z)*w + ((y*x)*z)*w = cyc(x,y,z; (x*y)*z)*w + (x*(y*z))*w",
    "{x,y,z} + {y,x,z} + {x,y,z} = 3 {A^2(x),y,z} - 1/3 {A^2(x),y,A(z)}",
    "cyc(z,x,y; (x*z)*A(y))*w + cyc(x,y,z; cyc(y,z,w; (x*y)*(z*w))) = cyc(x,y,z; {y,w,x}*z)",
]

JACOBIANS = ["(x*y)*z + (y*z)*x + (z*x)*y", "cyc(x,y,z; (x*y)*z)"]

CATALOG = catalog()


def _monomials(node):
    return {m: c for m, c in _expand(node).items() if c}


def _sides():
    """Every built-in side and every side of FACTORING, with its identity's variables."""
    idents = [i for suite in SUITES.values() for i in suite.identities] + [parse_identity(t) for t in FACTORING]
    return [(side, ident.variables) for ident in idents for side in (ident.lhs, ident.rhs)]


SIDES = _sides()


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


def _binary_calls(monkeypatch, call):
    """The binary products that call() makes, and its result."""
    calls = []
    kernel = HomAlgebra._binary

    def counted(self, u, v):
        calls.append(None)
        return kernel(self, u, v)

    monkeypatch.setattr(HomAlgebra, "_binary", counted)
    got = call()
    monkeypatch.undo()
    return len(calls), got


# --- the plan ---------------------------------------------------------------------------


def _renamed(node, rename):
    """The node with each variable t, bound by a cyc or free, named rename[t]."""
    if isinstance(node, Var):
        return Var(rename[node.name])
    if isinstance(node, Sum):
        return Sum(tuple(_renamed(t, rename) for t in node.terms))
    if isinstance(node, CyclicSum):
        return CyclicSum(tuple(rename[n] for n in node.names), _renamed(node.body, rename))
    kids = {f.name: getattr(node, f.name) for f in fields(node)}
    return replace(node, **{name: _renamed(kid, rename) for name, kid in kids.items() if isinstance(kid, Node)})


def _compiled(node):
    steps = []
    step, names = _compile(node, steps, {})
    return steps, step, names


@pytest.mark.parametrize("side, variables", SIDES, ids=[format_node(side)[:40] for side, _ in SIDES])
def test_a_node_and_any_renaming_of_its_variables_compile_to_equal_steps(side, variables):
    steps, step, names = _compiled(side)
    renamings = [{v: f"{v}_" for v in variables}] + [dict(zip(variables, p)) for p in itertools.permutations(variables)]
    for rename in renamings:
        # the steps name no variable; the names place the renamed ones
        assert _compiled(_renamed(side, rename)) == (steps, step, tuple(rename[n] for n in names))


def test_a_check_builds_no_identity_node(monkeypatch):
    # after parsing, a check walks the plans: no cyc rotation or renamed node is built
    bol = malcev_to_bol(octonions())
    suites = list(SUITES.values()) + [parse_suite("\n".join(f"f{i} : {t}" for i, t in enumerate(FACTORING)))]
    made = []
    for cls in Node:
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=cls.__init__, **k: made.append(init(self, *a, **k)))
    for suite in suites:
        check_suite(bol, suite)
    assert made == []
    Var("x")
    assert len(made) == 1


@pytest.mark.parametrize("text", JACOBIANS)
def test_a_jacobian_makes_the_products_of_one_of_its_terms(monkeypatch, text):
    # (x*y)*z, (y*z)*x and (z*x)*y have one shape: dim^2 inner products and
    # dim per nonzero inner value outer ones, not three times as many
    alg = _algebra(4, 1, symbolic=False)
    basis = [Vector.basis(i, 4) for i in range(4)]
    nonzero = sum(1 for u in basis for v in basis if not alg.eval_binary(u, v).is_zero())
    jacobian = parse_identity(f"{text} = 0").lhs
    calls, got = _binary_calls(monkeypatch, lambda: new.tabulate(jacobian, alg, ("x", "y", "z")))
    assert calls == 4**2 + 4 * nonzero
    assert got == tabulate(jacobian, alg, ("x", "y", "z"))


def test_terms_of_one_shape_evaluate_on_their_own_vectors():
    # x*y and y*x, and x*x and y*y, have one shape; each term must still
    # read its own variables' vectors
    x, y = Var("x"), Var("y")
    nodes = [parse_identity("x*y + y*x = 0").lhs, Sum((Binary(x, x), Binary(y, y)))]
    env = {"x": Vector((F(1), F(-2), F(3))), "y": Vector((F(2), F(1, 3), F(-1)))}
    for alg in (_algebra(3, 1, symbolic=False), _algebra(3, 2, symbolic=True)):
        for node in nodes:
            assert new.evaluate(node, alg, env) == evaluate(node, alg, env)


# --- checks and tables against the per-tuple evaluator -----------------------------------


def test_a_malcev_check_on_the_octonions_makes_at_most_14000_binary_products(monkeypatch):
    calls, got = _binary_calls(monkeypatch, lambda: new.check_identity(relabelled_octonions(), MALCEV))
    assert got is None
    # 25,128 with every term taking its own products
    assert calls <= 14_000


def _assert_malcev_tables_agree(alg):
    """malcev_linearized's sides, whose brackets repeat a shape, by the
    engine and by the per-tuple reference evaluator: ``test_tables``
    tabulates sides of four variables on few of these algebras."""
    for side in (MALCEV.lhs, MALCEV.rhs):
        assert new.tabulate(side, alg, MALCEV.variables) == tabulate(side, alg, MALCEV.variables)


@pytest.mark.parametrize("dim, seed", CASES)
@pytest.mark.parametrize("symbolic", [False, True], ids=["rational", "symbolic"])
def test_malcev_sides_tabulate_like_the_per_tuple_evaluator_on_seeded_tensors(dim, seed, symbolic):
    _assert_malcev_tables_agree(_algebra(dim, seed, symbolic))


def test_malcev_sides_tabulate_like_the_per_tuple_evaluator_on_relabelled_octonions():
    _assert_malcev_tables_agree(relabelled_octonions())


@pytest.mark.parametrize("text", FACTORING)
def test_factoring_identities_check_like_the_per_tuple_evaluator(text):
    ident = parse_identity(text)
    for alg in (_algebra(3, 1, symbolic=False), _algebra(3, 2, symbolic=True), parse_algebra(SAGLE_DOC)):
        for e in (0, 1, 2):
            assert new.check_identity(alg, ident, e) == check_identity(alg, ident, e)


@pytest.mark.parametrize("name, alg", CATALOG, ids=[name for name, _ in CATALOG])
def test_repeated_shapes_check_and_tabulate_like_the_per_tuple_evaluator_on_the_catalog(name, alg):
    # most of the catalog's twists are not the identity, so terms of one shape with
    # and without a twisted slot, and at each twist exponent, must keep apart
    for text in FACTORING + [f"{j} = 0" for j in JACOBIANS]:
        ident = parse_identity(text)
        for e in EXPONENTS:
            assert new.check_identity(alg, ident, e) == check_identity(alg, ident, e), f"{text} at {e}"
            for side in (ident.lhs, ident.rhs):
                want = tabulate(side, alg, ident.variables, e)
                assert new.tabulate(side, alg, ident.variables, e) == want, f"{format_node(side)} at {e}"


def test_a_skew_algebra_that_is_not_malcev_fails_where_the_sides_as_written_fail():
    alg = parse_algebra(SKEW_DOC)
    got = new.check_identity(alg, MALCEV)
    assert got == check_identity(alg, MALCEV)
    assert (got.indices, str(got.residual)) == ((0, 0, 2, 1), "(1, 0, 0)")
    assert new.check_identity(parse_algebra(SAGLE_DOC), MALCEV) is None


# --- the expansion ----------------------------------------------------------------------


def test_expansion_tells_a_wrong_factoring_apart():
    # a coefficient moved to the wrong operand, or a term dropped, is seen
    x, y, z = Var("x"), Var("y"), Var("z")
    written = Sum((ScalarMul(F(2), Binary(x, z)), Binary(y, z)))
    assert _monomials(Binary(Sum((ScalarMul(F(2), x), y)), z)) == _monomials(written)
    assert _monomials(Binary(Sum((x, ScalarMul(F(2), y))), z)) != _monomials(written)
    assert _monomials(Binary(x, z)) != _monomials(written)
    assert _monomials(CyclicSum(("x", "y", "z"), Binary(x, y))) != _monomials(Binary(x, y))
