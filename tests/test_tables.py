"""The table evaluator against the per-tuple evaluator it replaced.

``_Evaluator``, ``_no_vars``, ``evaluate``, ``tabulate`` and
``check_identity`` below are verbatim copies of the evaluator that
``hombol.identities`` had before each node was evaluated once to a sparse
table; the library's functions are reached as ``new.*``.  Every built-in
suite, at twist exponents 0, 1 and 2, must give the same Counterexample
(identity, variables, indices and residual) or None, the same ``tabulate``
tensors and the same ``evaluate`` values on seeded rational vectors.

The algebras: the seeded dim 3-5 tensors of ``test_kernels``, rational and
symbolic; the dim-2 catalog, with ``HB_A2``/``HB_A3`` at derived orders
0-3; the octonion cross product and its Malcev-to-Bol algebras; Sagle's
algebra; and copies of passing algebras tampered in one late cell, so that
the first failure lies deep in the lexicographic order.
"""

import itertools
import operator
import random
from dataclasses import fields
from fractions import Fraction as F

import pytest

from test_kernels import CASES
from test_round_trip import _algebra

from hombol import algebra
from hombol import identities as new
from hombol.algebra import PRODUCTS, HomAlgebra, LinearMap, Vector, cell_at, tensor, zero_tensor
from hombol.catalog import get
from hombol.constructions import malcev_to_bol, nth_derived
from hombol.identities import (
    SUITES,
    Binary,
    CyclicSum,
    Counterexample,
    MapApp,
    Node,
    ScalarMul,
    Sum,
    Ternary,
    Var,
    parse_identity,
)
from hombol.scalars import Scalar
from hombol.serialization import parse_algebra

EXPONENTS = (0, 1, 2)


# --- the per-tuple evaluator, verbatim -----------------------------------------


def _appearance_order(node):
    """A node's free variables, each once, in order of first appearance: a
    ``cyc``'s three names, then those of its body."""
    names = [node.name] if isinstance(node, Var) else list(node.names) if isinstance(node, CyclicSum) else []
    for f in fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Node):
                names += _appearance_order(child)
    return tuple(dict.fromkeys(names))


class _Evaluator:
    """The one evaluator of identity nodes over an algebra.

    env maps variable name -> index into ``leaves``, the vectors the
    variables stand for: the basis by default.  A subexpression's value is
    memoized on the indices of its own free variables, which makes the
    five-variable identities cheap under full enumeration, and twist powers
    are computed once.
    """

    def __init__(self, alg, twist_exponent=1, leaves=None):
        if twist_exponent < 0:
            raise ValueError("twist exponent must be nonnegative")
        self.alg = alg
        self.exponent = twist_exponent
        self.leaves = [Vector.basis(i, alg.dim) for i in range(alg.dim)] if leaves is None else leaves
        self._powers = {}
        self._memo = {}

    def map_power(self, k):
        m = self._powers.get(k)
        if m is None:
            m = self.alg.twist.power(self.exponent * k)
            self._powers[k] = m
        return m

    def node_memo(self, node):
        """(key getter, memo) for a node: the getter reads the indices of the
        node's free variables from an env, the memo maps them to values."""
        names = tuple(dict.fromkeys(_appearance_order(node)))
        got = (operator.itemgetter(*names) if names else _no_vars, {})
        self._memo[id(node)] = got
        return got

    def eval(self, node, env):
        if isinstance(node, Var):
            return self.leaves[env[node.name]]
        key_of, memo = self._memo.get(id(node)) or self.node_memo(node)
        key = key_of(env)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, MapApp):
            value = self.map_power(node.power).apply(self.eval(node.arg, env))
        elif isinstance(node, Binary):
            value = self.alg.eval_binary(self.eval(node.left, env), self.eval(node.right, env))
        elif isinstance(node, Ternary):
            value = self.alg.eval_ternary(
                self.eval(node.first, env), self.eval(node.second, env), self.eval(node.third, env)
            )
        elif isinstance(node, ScalarMul):
            value = self.eval(node.arg, env).scale(node.coeff)
        elif isinstance(node, Sum):
            value = Vector.zero(self.alg.dim)
            for t in node.terms:
                value = value + self.eval(t, env)
        elif isinstance(node, CyclicSum):
            a, b, c = node.names
            rotations = (
                env,
                {**env, a: env[b], b: env[c], c: env[a]},
                {**env, a: env[c], b: env[a], c: env[b]},
            )
            value = Vector.zero(self.alg.dim)
            for rotated in rotations:
                value = value + self.eval(node.body, rotated)
        else:
            raise TypeError(f"not an identity node: {node!r}")
        memo[key] = value
        return value


def _no_vars(env):
    return ()


def evaluate(node, alg, env, twist_exponent=1):
    """Evaluate a node on arbitrary vectors; env maps variable name -> Vector."""
    ev = _Evaluator(alg, twist_exponent, list(env.values()))
    return ev.eval(node, {name: i for i, name in enumerate(env)})


def tabulate(node, alg, variables, twist_exponent=1):
    """The values of a node on every assignment of basis vectors to
    ``variables``: nested tuples of Vectors, indexed [i][j]... in the order
    of ``variables``."""
    ev = _Evaluator(alg, twist_exponent)
    return tensor(alg.dim, len(variables), lambda idx: ev.eval(node, dict(zip(variables, idx))))


def check_identity(alg, identity, twist_exponent=1):
    """Check one identity over all basis assignments.

    Returns None on Pass, else the Counterexample at the lexicographically
    smallest failing index tuple.  With symbolic structure constants Pass
    means the residual is the zero polynomial at every tuple.
    """
    ev = _Evaluator(alg, twist_exponent)
    names = identity.variables
    for indices in itertools.product(range(alg.dim), repeat=len(names)):
        env = dict(zip(names, indices))
        residual = ev.eval(identity.lhs, env) - ev.eval(identity.rhs, env)
        if not residual.is_zero():
            return Counterexample(
                identity=identity.name, variables=names, indices=indices, residual=residual
            )
    return None


# --- algebras -------------------------------------------------------------------

SAGLE_DOC = (
    "dim 4\nbasis e1 e2 e3 e4\ncomplete skew-binary\n"
    "binary e1 e2 = -e2\nbinary e1 e3 = -e3\nbinary e1 e4 = e4\nbinary e2 e3 = 2*e4\n"
)


def octonions():
    """The 7-dim cross product: e_i e_j = e_k on the lines (i, i+1, i+3) mod 7."""
    binary = [[[0] * 7 for _ in range(7)] for _ in range(7)]
    for i in range(7):
        a, b, c = i, (i + 1) % 7, (i + 3) % 7
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            binary[x][y][z], binary[y][x][z] = 1, -1
    return HomAlgebra(7, binary=binary)


def sign_automorphism():
    """diag(s) with s = +1 on e1, e2, e4 (the line (0, 1, 3)) and -1 elsewhere."""
    signs = [1 if i in (0, 1, 3) else -1 for i in range(7)]
    return LinearMap([[signs[i] if i == j else 0 for j in range(7)] for i in range(7)])


def tampered(alg):
    """alg with 1 added to the first coordinate of its last ternary cell (or,
    without a ternary product, of its last binary cell): a failure late in
    the lexicographic order of most identities."""
    kind, arity = ("ternary", 3) if alg.ternary != zero_tensor(alg.dim, 3) else ("binary", 2)

    def bump(t, depth):
        if depth == 0:
            return (t[0] + Scalar.rational(1),) + t[1:]
        return t[:-1] + (bump(t[-1], depth - 1),)

    return alg.replace(**{kind: bump(getattr(alg, kind), arity)})


def skew(alg):
    """alg without its ternary product, its binary product made skew from
    the cells above the diagonal."""
    return skewed(alg.replace(ternary=None), ("binary",))


def skewed(alg, kinds):
    """alg with each product of the given kinds made skew in its first two
    slots from the cells where the first index is below the second."""

    def made_skew(t):
        def cell(idx):
            i, j, *rest = idx
            if i == j:
                return Vector.zero(alg.dim).coords
            return cell_at(t, idx) if i < j else tuple(-c for c in cell_at(t, (j, i, *rest)))

        return cell

    made = {kind: tensor(alg.dim, r, made_skew(getattr(alg, kind))) for kind, r in PRODUCTS if kind in kinds}
    return alg.replace(**made)


def tampered_skew(alg):
    """alg with e1 added to its ternary cell at (e_{n-1}, e_n, e_n) and taken
    from the one at (e_n, e_{n-1}, e_n): a late failure that keeps a skew
    ternary product skew."""
    n = alg.dim - 1

    def cell(idx):
        bump = {(n - 1, n, n): 1, (n, n - 1, n): -1}.get(idx, 0)
        return (cell_at(alg.ternary, idx)[0] + bump,) + cell_at(alg.ternary, idx)[1:]

    return alg.replace(ternary=tensor(alg.dim, 3, cell))


def catalog():
    out = [
        ("A1", get("A1")),
        ("A2", get("A2")),
        ("A3+", get("A3", sign="+")),
        ("A3-", get("A3", sign="-")),
    ]
    for name, alg in (("HB_A2", get("HB_A2")), ("HB_A3", get("HB_A3", sign="+"))):
        out += [(f"{name} derived {n}", nth_derived(alg, n)) for n in range(4)]
    out += [("HB_A2 at b=2", get("HB_A2", lam=F(1), a=F(1), b=F(2)))]
    return out


def sagle():
    alg = parse_algebra(SAGLE_DOC)
    beta = LinearMap.from_columns(((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 6)))
    twisted = malcev_to_bol(alg, beta)
    return [("Sagle", alg), ("Sagle bol", twisted), ("Sagle derived 1", nth_derived(twisted, 1))]


def small_algebras():
    found = catalog() + sagle()
    found += [(f"{name} tampered", tampered(alg)) for name, alg in found if name in ("A2", "HB_A2 at b=2", "Sagle bol")]
    return found


SMALL = small_algebras()
RANDOM = [(dim, seed, symbolic) for dim, seed in CASES for symbolic in (False, True)]


def identities():
    return [(suite, ident) for suite in SUITES.values() for ident in suite.identities]


def assert_checks_agree(alg, exponents=EXPONENTS):
    for suite, ident in identities():
        for e in exponents:
            want = check_identity(alg, ident, e)
            got = new.check_identity(alg, ident, e)
            assert got == want, f"{suite.name}/{ident.name} at twist exponent {e}: {got} != {want}"


def sides(max_variables=5):
    """The distinct sides of every built-in identity, with their variables."""
    seen = {}
    for _, ident in identities():
        if len(ident.variables) <= max_variables:
            for side in (ident.lhs, ident.rhs):
                seen.setdefault((side, ident.variables), None)
    return list(seen)


def _vector(rng, dim):
    return Vector(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)))


# --- checks ------------------------------------------------------------------------


@pytest.mark.parametrize("name, alg", SMALL, ids=[name for name, _ in SMALL])
def test_small_algebras_check_like_the_per_tuple_evaluator(name, alg):
    assert_checks_agree(alg)


@pytest.mark.parametrize("dim, seed, symbolic", RANDOM)
def test_seeded_tensors_check_like_the_per_tuple_evaluator(dim, seed, symbolic):
    assert_checks_agree(_algebra(dim, seed, symbolic))


@pytest.mark.parametrize("dim, seed", CASES)
def test_seeded_skew_tensors_tampered_late_check_like_the_per_tuple_evaluator(dim, seed):
    # skew_binary now first fails at the last basis pair
    assert_checks_agree(tampered(skew(_algebra(dim, seed, symbolic=False))), exponents=(1,))


@pytest.mark.parametrize("bol", [False, True], ids=["octonions", "malcev_to_bol"])
def test_octonion_algebras_check_like_the_per_tuple_evaluator(bol):
    alg = octonions()
    assert_checks_agree(malcev_to_bol(alg, sign_automorphism()) if bol else alg, exponents=(1,))


def test_octonion_hom_jacobi_fails_in_a_rotated_cyclic_slot():
    # each of the three cyclic slots gives -e6 at (e1, e2, e3), and every
    # earlier tuple vanishes; a rotation whose pinned variable is not moved
    # with it reports an earlier tuple instead
    alg = octonions()
    ident = next(i for i in SUITES["hom_lie"].identities if i.name == "hom_jacobi")
    got = new.check_identity(alg, ident)
    assert got == check_identity(alg, ident)
    assert got.indices == (0, 1, 2)
    assert got.residual == Vector((0, 0, 0, 0, 0, -3, 0))


def test_tampered_octonion_bol_fails_late_like_the_per_tuple_evaluator():
    bol = tampered(malcev_to_bol(octonions(), sign_automorphism()))
    for ident in SUITES["hom_bol"].identities:
        want = check_identity(bol, ident)
        assert new.check_identity(bol, ident) == want
        if ident.name == "twist_respects_ternary":
            assert want.indices == (6, 6, 6)


# --- one tuple per symmetry orbit -------------------------------------------------

# skew in its binary product but not in its ternary one: binary_derivation
# first fails at u = e2 > v = e1, a tuple that the swap of u and v, which
# holds modulo skew binary and ternary products, would skip
HALF_SKEW_DOC = (
    "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = e3\nbinary e2 e3 = e1\n"
    "ternary e2 e1 e1 = e2\nternary e1 e2 e3 = e1\n"
)
SKEW_KINDS = [("binary",), ("ternary",), ("binary", "ternary")]


def test_the_skew_test_reads_each_product_kind_from_the_cells():
    half = parse_algebra(HALF_SKEW_DOC)
    assert half._skew_kinds() == ("binary",)
    for kinds in SKEW_KINDS:
        assert skewed(_algebra(3, 2, symbolic=True), kinds)._skew_kinds() == kinds
    bol = malcev_to_bol(octonions())
    assert bol._skew_kinds() == ("binary", "ternary")
    assert tampered_skew(bol)._skew_kinds() == ("binary", "ternary")
    # a nonzero cell at (i, i, ...) of either product is not skew
    assert "ternary" not in tampered(bol)._skew_kinds()
    alg = skewed(_algebra(3, 1, symbolic=False), ("binary",))
    diagonal = alg.replace(binary=tensor(3, 2, lambda idx: (1, 0, 0) if idx == (2, 2) else cell_at(alg.binary, idx)))
    assert "binary" not in diagonal._skew_kinds()


def test_each_product_kind_is_tested_for_skewness_once_per_algebra(monkeypatch):
    tests = []
    skew_cells = algebra._skew_cells
    monkeypatch.setattr(algebra, "_skew_cells", lambda t, dim, arity: tests.append(arity) or skew_cells(t, dim, arity))
    alg = get("A1")
    # six identities of hom_bol and four of bol have swaps that need skew products
    assert new.check_suite(alg, "hom_bol").passed and new.check_suite(alg, "bol").passed
    assert sorted(tests) == [2, 3]
    # another algebra, even an equal one, decides again
    assert new.check_suite(alg.replace(), "bol").passed
    assert sorted(tests) == [2, 2, 3, 3]


def test_an_algebra_skew_only_in_its_binary_product_keeps_its_counterexamples():
    alg = parse_algebra(HALF_SKEW_DOC)
    report = dict(new.check_suite(alg, "bol").results)
    for name, assignment, residual in [
        ("binary_derivation", "x=e1, y=e2, u=e2, v=e1", (-1, 0, 0)),
        ("ternary_derivation", "x=e1, y=e2, u=e2, v=e1, w=e3", (0, -1, 0)),
    ]:
        assert (report[name].assignment(alg.basis), report[name].residual) == (assignment, Vector(residual))
    assert_checks_agree(alg)


def test_malcev_linearized_keeps_a_failure_where_x_equals_w():
    # the swap of x and w fixes the sides with sign +1, so tuples with
    # x == w are checked; this algebra first fails at one
    alg = _algebra(3, 1, symbolic=False)
    got = new.check_identity(alg, SUITES["malcev"].identities[1])
    assert got == check_identity(alg, SUITES["malcev"].identities[1])
    assert got.variables == ("x", "y", "w", "z") and got.indices == (0, 0, 0, 1)


@pytest.mark.parametrize("kinds", SKEW_KINDS, ids="+".join)
@pytest.mark.parametrize("dim, seed, symbolic", [(dim, seed, False) for dim, seed in CASES] + [(3, 1, True)])
def test_seeded_skew_tensors_check_like_the_per_tuple_evaluator(dim, seed, symbolic, kinds):
    alg = skewed(_algebra(dim, seed, symbolic), kinds)
    exponents = EXPONENTS if dim == 3 else (1,)
    assert_checks_agree(alg, exponents)
    assert_checks_agree(tampered_skew(alg), exponents)


def test_tampered_skew_octonion_bol_fails_late_like_the_per_tuple_evaluator():
    # both products stay skew, so every derivation identity skips the tuples
    # out of order and still finds the least failing one
    bol = tampered_skew(malcev_to_bol(octonions(), sign_automorphism()))
    for suite in ("bol", "hom_bol"):
        for ident in SUITES[suite].identities:
            assert new.check_identity(bol, ident) == check_identity(bol, ident), ident.name


# --- tables and values ---------------------------------------------------------------


@pytest.mark.parametrize("name, alg", SMALL, ids=[name for name, _ in SMALL])
def test_small_algebras_tabulate_like_the_per_tuple_evaluator(name, alg):
    for side, variables in sides():
        for e in EXPONENTS:
            assert new.tabulate(side, alg, variables, e) == tabulate(side, alg, variables, e)


@pytest.mark.parametrize("dim, seed, symbolic", [(3, 1, False), (3, 2, True), (4, 1, False), (5, 2, False)])
def test_seeded_tensors_tabulate_like_the_per_tuple_evaluator(dim, seed, symbolic):
    alg = _algebra(dim, seed, symbolic)
    for side, variables in sides(max_variables=3 if dim > 3 or symbolic else 5):
        assert new.tabulate(side, alg, variables) == tabulate(side, alg, variables)


def test_octonion_brackets_tabulate_like_the_per_tuple_evaluator():
    alg = octonions()
    for side, variables in sides(max_variables=3):
        assert new.tabulate(side, alg, variables) == tabulate(side, alg, variables)


@pytest.mark.parametrize("dim, seed, symbolic", [c for c in RANDOM if c[0] == 3 or not c[2]])
def test_seeded_tensors_evaluate_like_the_per_tuple_evaluator(dim, seed, symbolic):
    # every call takes its own twist powers, which are large when symbolic
    alg = _algebra(dim, seed, symbolic)
    rng = random.Random(seed * 10 + dim)
    for side, variables in sides():
        env = {v: _vector(rng, dim) for v in variables}
        for e in EXPONENTS:
            assert new.evaluate(side, alg, env, e) == evaluate(side, alg, env, e)


@pytest.mark.parametrize("name, alg", SMALL, ids=[name for name, _ in SMALL])
def test_small_algebras_evaluate_like_the_per_tuple_evaluator(name, alg):
    rng = random.Random(name)
    for side, variables in sides():
        env = {v: _vector(rng, alg.dim) for v in reversed(variables)}
        assert new.evaluate(side, alg, env) == evaluate(side, alg, env)


def test_nodes_that_are_not_multilinear_evaluate_like_the_per_tuple_evaluator():
    # built by hand: the parser refuses them, but evaluate and tabulate take them
    x, y, z = Var("x"), Var("y"), Var("z")
    nodes = [
        Binary(x, x),
        Ternary(x, y, x),
        Sum((x, Binary(y, z))),
        CyclicSum(("x", "y", "z"), Binary(x, y)),
        CyclicSum(("x", "y", "z"), CyclicSum(("y", "z", "w"), Ternary(x, Var("w"), z))),
        Binary(Sum(()), x),
        MapApp(2, ScalarMul(F(-1, 2), Ternary(y, x, y))),
    ]
    alg = _algebra(3, 1, symbolic=False)
    rng = random.Random(7)
    for node in nodes:
        variables = tuple(dict.fromkeys(_appearance_order(node)))
        env = {v: _vector(rng, 3) for v in variables}
        assert new.evaluate(node, alg, env) == evaluate(node, alg, env)
        for order in (variables, variables[::-1] + ("t",)):
            assert new.tabulate(node, alg, order) == tabulate(node, alg, order)


def test_identities_with_a_single_or_no_variable():
    alg = _algebra(3, 2, symbolic=True)
    for text in ("0 = 0", "A(x) = x", "A^2(x) = 2 A(x) - x", "x = 0*x"):
        ident = parse_identity(text)
        for e in EXPONENTS:
            assert new.check_identity(alg, ident, e) == check_identity(alg, ident, e)
