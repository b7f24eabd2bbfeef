"""Differential tests of the evaluation engine against the loops it replaced.

``malcev_to_bol``, ``hom_jacobian``, ``first_weak_morphism_failure`` and
``generate_constraints`` used to loop over basis tuples by hand.  The
references below are those loops, written densely with nothing but Scalar
arithmetic; the new code tabulates identity expressions or reads
``morphism_residuals``.  The algebras are the seeded random dim 3-5 tensors
of test_kernels, about 30% zero cells, rational and symbolic.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from test_kernels import CASES, _coords, _matrix, _tensor

from hombol.algebra import HomAlgebra, LinearMap, Vector, first_weak_morphism_failure, morphism_residuals
from hombol.constructions import hom_jacobian, malcev_to_bol, yau_twist
from hombol.identities import SUITES, evaluate, parse_identity, tabulate
from hombol.morphisms import generate_constraints, unknown_names
from hombol.scalars import ONE, ZERO, Scalar


def _random_algebra(rng, dim, twisted=True):
    return HomAlgebra(
        dim,
        binary=_tensor(rng, dim, 2),
        ternary=_tensor(rng, dim, 3),
        twist=LinearMap(_matrix(rng, dim)) if twisted else None,
    )


def _semidirect_lie(rng, dim):
    """[e1, ei] = D ei for a random D on span(e2..en), all other brackets of
    basis vectors zero: a Lie algebra, hence Malcev, for every D."""
    binary = [[(ZERO,) * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(1, dim):
        image = (ZERO,) + _coords(rng, dim - 1)
        binary[0][i] = image
        binary[i][0] = tuple(-c for c in image)
    return HomAlgebra(dim, binary=binary)


# --- the pre-change loops ----------------------------------------------------


def old_malcev_ternary(alg):
    third = F(1, 3)
    n = alg.dim
    cells = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                x, y, z = (alg.basis_vector(t) for t in (i, j, k))
                value = (
                    alg.eval_binary(alg.eval_binary(x, y), z).scale(2)
                    - alg.eval_binary(alg.eval_binary(y, z), x)
                    - alg.eval_binary(alg.eval_binary(z, x), y)
                ).scale(third)
                row.append(tuple(value.coords))
            plane.append(tuple(row))
        cells.append(tuple(plane))
    return tuple(cells)


def old_hom_jacobian(alg):
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    twisted = [alg.twist.apply(v) for v in basis]

    def jac(i, j, k):
        total = alg.eval_binary(alg.eval_binary(basis[i], basis[j]), twisted[k])
        total = total + alg.eval_binary(alg.eval_binary(basis[j], basis[k]), twisted[i])
        total = total + alg.eval_binary(alg.eval_binary(basis[k], basis[i]), twisted[j])
        return total

    return tuple(tuple(tuple(jac(i, j, k) for k in range(n)) for j in range(n)) for i in range(n))


def old_residuals(theta, src, dst):
    n = src.dim
    images = [theta.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            yield "binary", (i, j), theta.apply(src.binary_value(i, j)) - dst.eval_binary(images[i], images[j])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = theta.apply(src.ternary_value(i, j, k))
                yield "ternary", (i, j, k), lhs - dst.eval_ternary(images[i], images[j], images[k])


def old_first_failure(theta, src, dst):
    for failure in old_residuals(theta, src, dst):
        if not failure[2].is_zero():
            return failure
    return None


def old_equations(alg):
    n = alg.dim
    names = unknown_names(n)
    theta = LinearMap.from_columns(
        tuple(tuple(Scalar.parameter(names[j * n + i]) for i in range(n)) for j in range(n))
    )
    equations = {}
    for _, _, residual in old_residuals(theta, alg, alg):
        for coord in residual.coords:
            if not coord.is_zero():
                equations.setdefault(coord, None)
    return tuple(equations)


# --- tabulated expressions ---------------------------------------------------

MALCEV_BRACKET = parse_identity("1/3 (2 (x*y)*z - (y*z)*x - (z*x)*y) = 0")


@pytest.mark.parametrize("dim, seed", CASES)
def test_tabulated_malcev_bracket_matches_the_triple_loop(dim, seed):
    alg = _random_algebra(random.Random(seed), dim, twisted=False)
    table = tabulate(MALCEV_BRACKET.lhs, alg, MALCEV_BRACKET.variables)
    assert tuple(tuple(tuple(v.coords for v in row) for row in plane) for plane in table) == old_malcev_ternary(alg)


@pytest.mark.parametrize("dim, seed", CASES)
def test_malcev_to_bol_matches_the_old_construction(dim, seed):
    rng = random.Random(seed)
    alg = _semidirect_lie(rng, dim)
    scale = LinearMap(tuple(tuple((ONE if i == 0 else Scalar.rational(2)) if i == j else ZERO for j in range(dim)) for i in range(dim)))
    for beta in (None, scale):
        expected = yau_twist(alg.replace(ternary=old_malcev_ternary(alg)), beta or LinearMap.identity(dim))
        got = malcev_to_bol(alg, beta)
        assert got == expected
        assert got.params == expected.params


@pytest.mark.parametrize("dim, seed", CASES)
def test_hom_jacobian_matches_the_old_loop(dim, seed):
    alg = _random_algebra(random.Random(seed), dim)
    assert hom_jacobian(alg) == old_hom_jacobian(alg)


def test_tabulate_shapes_and_twist_exponent():
    alg = _random_algebra(random.Random(5), 3)
    node = parse_identity("A(x) = 0").lhs
    assert tabulate(node, alg, ("x",)) == tuple(alg.twist.column(i) for i in range(3))
    assert tabulate(node, alg, ("x",), twist_exponent=2) == tuple(alg.twist.power(2).column(i) for i in range(3))
    assert tabulate(parse_identity("x*y = 0").lhs, alg, ("y", "x"))[2][0] == alg.binary_value(0, 2)
    assert tabulate(parse_identity("0 = 0").lhs, alg, ()) == Vector.zero(3)


@pytest.mark.parametrize("dim, seed", [(3, 1), (3, 2)])
@pytest.mark.parametrize(
    "suite, name",
    [("hom_bol", "twisted_binary_derivation"), ("hom_bol", "twist_respects_ternary"), ("hom_akivis", "akivis_balance")],
)
def test_evaluate_on_symbolic_vectors_is_the_multilinear_expansion(dim, seed, suite, name):
    rng = random.Random(seed)
    alg = _random_algebra(rng, dim)
    ident = next(i for i in SUITES[suite].identities if i.name == name)
    env = {v: Vector(_coords(rng, dim)) for v in ident.variables}
    for side in (ident.lhs, ident.rhs):
        table = tabulate(side, alg, ident.variables)
        expansion = Vector.zero(dim)
        for indices in itertools.product(range(dim), repeat=len(ident.variables)):
            weight = ONE
            cell = table
            for v, i in zip(ident.variables, indices):
                weight = weight * env[v].coords[i]
                cell = cell[i]
            expansion = expansion + cell.scale(weight)
        assert evaluate(side, alg, env) == expansion


# --- morphism residuals ------------------------------------------------------


@pytest.mark.parametrize("dim, seed", CASES)
def test_morphism_residuals_match_the_old_loops(dim, seed):
    rng = random.Random(seed)
    src, dst = _random_algebra(rng, dim), _random_algebra(rng, dim)
    theta = LinearMap(_matrix(rng, dim))
    assert list(morphism_residuals(theta, src, dst)) == list(old_residuals(theta, src, dst))
    assert first_weak_morphism_failure(theta, src, dst) == old_first_failure(theta, src, dst)


@pytest.mark.parametrize("dim, seed", CASES)
def test_first_failure_can_be_a_ternary_triple(dim, seed):
    rng = random.Random(seed)
    alg = _random_algebra(rng, dim)
    ident = LinearMap.identity(dim)
    assert first_weak_morphism_failure(ident, alg, alg) is None
    # a map that respects the (zero) binary product but not the ternary one
    no_binary = alg.replace(binary=None)
    theta = LinearMap(_matrix(rng, dim))
    failure = first_weak_morphism_failure(theta, no_binary, no_binary)
    assert failure is not None and failure[0] == "ternary"
    assert failure == old_first_failure(theta, no_binary, no_binary)
    # identity into an algebra that differs from the source in one ternary cell
    i, j, k = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
    planes = [[list(row) for row in plane] for plane in alg.ternary]
    planes[i][j][k] = tuple(c + ONE for c in planes[i][j][k])
    dst = alg.replace(ternary=planes)
    failure = first_weak_morphism_failure(ident, alg, dst)
    assert failure == ("ternary", (i, j, k), Vector((-1,) * dim))
    assert failure == old_first_failure(ident, alg, dst)


@pytest.mark.parametrize("dim, seed", [(3, 1), (3, 2), (4, 1), (5, 1)])
def test_generate_constraints_equations_are_unchanged(dim, seed):
    alg = _random_algebra(random.Random(seed), dim, twisted=False)
    assert generate_constraints(alg).equations == old_equations(alg)

