"""Differential tests of the evaluation engine against the loops it replaced.

``malcev_to_bol``, ``hom_jacobian``, ``first_weak_morphism_failure`` and
``generate_constraints`` used to loop over basis tuples by hand.  The
references below are those loops, written densely with nothing but Scalar
arithmetic; the new code tabulates identity expressions or reads
``morphism_residuals``.  The algebras are the seeded random dim 3-5 tensors
of test_kernels, about 30% zero cells, rational and symbolic.

The structure-tensor helpers (``tensor``, ``cell_at``, ``HomAlgebra.cells``)
replaced one copy per arity of the composition, emission and dense-build
code; verbatim copies of those per-arity versions are kept below as well and
compared on the same tensors, and on dim 2.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from test_kernels import CASES, PARAMS, _coords, _matrix, _tensor

from test_round_trip import _algebra

from hombol.algebra import (
    PRODUCTS,
    HomAlgebra,
    LinearMap,
    Vector,
    cell_at,
    first_weak_morphism_failure,
    morphism_residuals,
    tensor,
)
from hombol.constructions import _recompose, hom_jacobian, malcev_to_bol, nth_derived, yau_twist
from hombol.errors import ParseError
from hombol.identities import SUITES, evaluate, parse_identity, tabulate
from hombol.morphisms import generate_constraints, unknown_names
from hombol.scalars import ONE, ZERO, Scalar
from hombol.serialization import _DocReader, emit_algebra, format_vector, parse_algebra


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
                x, y, z = (Vector.basis(t, n) for t in (i, j, k))
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
    basis = [Vector.basis(i, n) for i in range(n)]
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
            yield "binary", (i, j), theta.apply(Vector(src.binary[i][j])) - dst.eval_binary(images[i], images[j])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = theta.apply(Vector(src.ternary[i][j][k]))
                yield "ternary", (i, j, k), lhs - dst.eval_ternary(images[i], images[j], images[k])


def old_twist_rows(theta, src, dst):
    """The twist block of generate_constraints before morphism_residuals
    carried it, with src and dst for the one algebra it read."""
    n = src.dim
    lhs = theta.compose(src.twist)
    rhs = dst.twist.compose(theta)
    for i in range(n):
        yield "twist", (i,), Vector(lhs.rows[i]) - Vector(rhs.rows[i])


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
    assert tabulate(parse_identity("x*y = 0").lhs, alg, ("y", "x"))[2][0] == Vector(alg.binary[0][2])
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
    rows = list(morphism_residuals(theta, src, dst))
    products = [r for r in rows if r[0] != "twist"]
    assert products == list(old_residuals(theta, src, dst))
    assert rows[len(products):] == list(old_twist_rows(theta, src, dst))
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



def test_twisted_constraints_add_the_intertwining_equations_last():
    alg = _random_algebra(random.Random(3), 3)
    n = alg.dim
    names = unknown_names(n)
    theta = LinearMap.from_columns(
        tuple(tuple(Scalar.parameter(names[j * n + i]) for i in range(n)) for j in range(n))
    )
    lhs, rhs = theta.compose(alg.twist), alg.twist.compose(theta)
    expected = dict.fromkeys(old_equations(alg))
    for i in range(n):
        for coord in (Vector(lhs.rows[i]) - Vector(rhs.rows[i])).coords:
            if not coord.is_zero():
                expected.setdefault(coord, None)
    assert generate_constraints(alg).equations == tuple(expected)


# --- structure tensors of arity r -------------------------------------------
#
# The per-arity code that tensor, cell_at and HomAlgebra.cells replaced,
# copied verbatim: constructions.compose_binary/compose_ternary, the loop
# nests of serialization.emit_algebra, and the skew completion and dense
# build of serialization.parse_algebra.


def old_compose_binary(m, binary):
    """Tensor of m(e_i * e_j): the map applied to every binary product value."""
    return tuple(tuple(tuple(m.apply(cell).coords) for cell in row) for row in binary)


def old_compose_ternary(m, ternary):
    return tuple(
        tuple(tuple(tuple(m.apply(cell).coords) for cell in row) for row in plane)
        for plane in ternary
    )


def old_emit_algebra(alg):
    lines = [f"dim {alg.dim}"]
    declared = sorted(alg.all_variables())
    if declared:
        lines.append("params " + " ".join(declared))
    lines.append("basis " + " ".join(alg.basis))
    n = alg.dim
    for i in range(n):
        for j in range(n):
            cell = Vector(alg.binary[i][j])
            if not cell.is_zero():
                lines.append(f"binary {alg.basis[i]} {alg.basis[j]} = {format_vector(cell, alg.basis)}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cell = Vector(alg.ternary[i][j][k])
                if not cell.is_zero():
                    lines.append(
                        f"ternary {alg.basis[i]} {alg.basis[j]} {alg.basis[k]} = "
                        f"{format_vector(cell, alg.basis)}"
                    )
    if not alg.twist.is_identity():
        for j in range(n):
            lines.append(f"alpha {alg.basis[j]} = {format_vector(alg.twist.column(j), alg.basis)}")
    return "\n".join(lines) + "\n"


def old_parse_algebra(text):
    complete = set()

    def directive(lineno, words):
        if words[0] != "complete":
            raise ParseError(f"unknown keyword {words[0]!r}", line=lineno)
        if len(words) != 2 or words[1] not in ("skew-binary", "skew-ternary"):
            raise ParseError("complete takes skew-binary or skew-ternary", line=lineno)
        complete.add(words[1])

    doc = _DocReader(text, {"binary": 2, "ternary": 3, "alpha": 1}, directive)
    n = doc.dim
    zero = Vector.zero(n)

    def completed_pairs(assigned, skew, partner, diagonal, what):
        cells = {idx: value for idx, (value, _) in assigned.items()}
        if skew:
            for idx, (value, lineno) in assigned.items():
                mate = partner(idx)
                if mate == idx:
                    if not value.is_zero():
                        raise ParseError(
                            f"conflicting assignment: {what} at {idx} must vanish under skew completion",
                            line=lineno,
                        )
                    continue
                if mate in assigned:
                    if assigned[mate][0] != -value:
                        raise ParseError(
                            f"conflicting assignment: {what} at {mate} breaks skew symmetry",
                            line=assigned[mate][1],
                        )
                else:
                    cells[mate] = -value
            for idx in diagonal:
                cells.setdefault(idx, zero)
        return cells

    bin_cells = completed_pairs(
        doc.cells["binary"],
        "skew-binary" in complete,
        lambda ij: (ij[1], ij[0]),
        [(i, i) for i in range(n)],
        "binary product",
    )
    tern_cells = completed_pairs(
        doc.cells["ternary"],
        "skew-ternary" in complete,
        lambda ijk: (ijk[1], ijk[0], ijk[2]),
        [(i, i, k) for i in range(n) for k in range(n)],
        "ternary product",
    )

    binary_tensor = tuple(
        tuple(bin_cells.get((i, j), zero).coords for j in range(n)) for i in range(n)
    )
    ternary_tensor = tuple(
        tuple(tuple(tern_cells.get((i, j, k), zero).coords for k in range(n)) for j in range(n))
        for i in range(n)
    )

    return HomAlgebra(
        dim=n,
        basis=doc.basis,
        params=frozenset(doc.params or ()),
        binary=binary_tensor,
        ternary=ternary_tensor,
        twist=doc.twist(required=False),
    )


TENSOR_CASES = [(2, 1), (2, 2)] + CASES
KINDS = pytest.mark.parametrize("symbolic", [False, True], ids=["rational", "symbolic"])


@KINDS
@pytest.mark.parametrize("dim, seed", TENSOR_CASES)
def test_tensor_rebuilds_from_its_cells_in_product_order(dim, seed, symbolic):
    alg = _algebra(dim, seed, symbolic)
    for kind, arity in PRODUCTS:
        t = getattr(alg, kind)
        assert tensor(dim, arity, lambda idx: cell_at(t, idx)) == t
        indices = tensor(dim, arity, lambda idx: idx)
        assert all(cell_at(indices, idx) == idx for idx in itertools.product(range(dim), repeat=arity))
        order = [idx for k, idx, _ in alg.cells() if k == kind]
        assert order == list(itertools.product(range(dim), repeat=arity))
    assert [k for k, _, _ in alg.cells()] == ["binary"] * dim**2 + ["ternary"] * dim**3
    assert all(coords == cell_at(getattr(alg, k), idx) for k, idx, coords in alg.cells())


@KINDS
@pytest.mark.parametrize("dim, seed", TENSOR_CASES)
def test_recompose_matches_the_per_arity_copies(dim, seed, symbolic):
    alg = _algebra(dim, seed, symbolic)
    m = alg.twist
    # the constructions square base^p for the ternary product; the formula
    # they replaced made base^(2p) on its own, one copy per arity
    def two_powers(p):
        return alg.replace(
            binary=old_compose_binary(m.power(p), alg.binary),
            ternary=old_compose_ternary(m.power(2 * p), alg.ternary),
            twist=m.power(p).compose(m),
        )

    assert _recompose(alg, m, 0) == alg
    assert _recompose(alg, m, 1) == two_powers(1)
    assert _recompose(alg, m, 2) == two_powers(2)
    assert nth_derived(alg, 1) == two_powers(1)
    assert nth_derived(alg, 2) == two_powers(3)


@KINDS
@pytest.mark.parametrize("dim, seed", TENSOR_CASES)
def test_emit_and_parse_match_the_per_arity_copies(dim, seed, symbolic):
    alg = _algebra(dim, seed, symbolic)
    text = emit_algebra(alg)
    assert text == old_emit_algebra(alg)
    assert emit_algebra(alg.replace(twist=None)) == old_emit_algebra(alg.replace(twist=None))
    back = parse_algebra(text)
    assert back == old_parse_algebra(text)
    assert back.params == old_parse_algebra(text).params


def _skew_document(alg, rng, conflict):
    """alg's header and twist, both complete directives, and for each skew
    pair of cells none, one or both (consistently), in shuffled order.
    ``conflict`` adds one cell that completion must refuse: a nonzero
    diagonal cell, or the mate of an assigned cell with the wrong sign."""
    n = alg.dim
    assigned = {}
    for kind, idx, _ in alg.cells():
        mate = (idx[1], idx[0]) + idx[2:]
        roll = rng.random()
        if idx == mate and roll < 0.5:
            assigned[kind, idx] = Vector.zero(n)
        elif idx < mate:
            value = Vector(_coords(rng, n))
            if roll < 0.3:
                assigned[kind, idx] = value
            elif roll < 0.6:
                assigned[kind, mate] = value
            elif roll < 0.8:
                assigned[kind, idx], assigned[kind, mate] = value, -value
    if conflict:
        kind, idx, _ = rng.choice([c for c in alg.cells() if (c[1][0] == c[1][1]) == (conflict == "diagonal")])
        value = Vector(_coords(rng, n))
        if conflict == "diagonal":
            assigned[kind, idx] = value + Vector.basis(0, n) if value.is_zero() else value
        else:
            assigned[kind, idx], assigned[kind, (idx[1], idx[0]) + idx[2:]] = value, Vector.basis(0, n) - value
    body = [
        f"{kind} {' '.join(alg.basis[i] for i in idx)} = {format_vector(value, alg.basis)}"
        for (kind, idx), value in assigned.items()
    ]
    rng.shuffle(body)
    head = [f"dim {n}", "params " + " ".join(PARAMS), "basis " + " ".join(alg.basis)]
    head += [line for line in emit_algebra(alg).splitlines() if line.startswith("alpha")]
    return "\n".join(head + ["complete skew-binary", "complete skew-ternary"] + body) + "\n"


@pytest.mark.parametrize("conflict", [None, "diagonal", "mate"])
@pytest.mark.parametrize("dim, seed", TENSOR_CASES)
def test_skew_completion_matches_the_per_arity_copy(dim, seed, conflict):
    rng = random.Random(seed)
    alg = _algebra(dim, seed, symbolic=True)
    for _ in range(3):
        text = _skew_document(alg, rng, conflict)
        if conflict is None:
            assert parse_algebra(text) == old_parse_algebra(text)
            continue
        with pytest.raises(ParseError) as old:
            old_parse_algebra(text)
        with pytest.raises(ParseError) as new:
            parse_algebra(text)
        assert str(new.value) == str(old.value)
        assert "conflicting assignment" in str(new.value)
