"""Differential tests of the tensor kernels against dense nested loops.

The kernels walk the stored sparse columns and cells, which hold only
nonzero entries, and build vectors through a trusted constructor; the
references below visit every cell and use nothing but Scalar arithmetic, so
any entry the sparse form drops, or any coordinate the trusted path
mishandles, shows up as a difference.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from hombol.algebra import PRODUCTS, HomAlgebra, LinearMap, Vector, cell_at, tensor, zero_tensor
from hombol.errors import DimensionMismatch
from hombol.scalars import ONE, ZERO, Scalar

PARAMS = ("a", "b", "lambda")


def stored(c):
    """Whether c is in stored form: a nonzero int, a Fraction that is not
    integral, or a Scalar that is not constant."""
    if type(c) is int:
        return c != 0
    if type(c) is F:
        return c.denominator != 1
    return type(c) is Scalar and not c.is_rational()


def _scalar(rng):
    """About 30% zeros; the rest rational, or a rational times a parameter
    plus a rational."""
    roll = rng.random()
    if roll < 0.3:
        return ZERO
    coeff = Scalar.rational(F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 2, 3))))
    if roll < 0.7:
        return coeff
    return coeff * Scalar.parameter(rng.choice(PARAMS)) + Scalar.rational(rng.randint(-2, 2))


def _coords(rng, dim):
    return tuple(_scalar(rng) for _ in range(dim))


def _tensor(rng, dim, arity):
    """A cell of coordinates for each of the dim^arity index tuples."""
    if arity == 0:
        return _coords(rng, dim)
    return tuple(_tensor(rng, dim, arity - 1) for _ in range(dim))


def _matrix(rng, dim):
    return tuple(_coords(rng, dim) for _ in range(dim))


CASES = [(dim, seed) for dim in (3, 4, 5) for seed in (1, 2)]


def dense_binary(binary, u, v):
    n = len(u)
    out = [ZERO] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] = out[k] + u[i] * v[j] * binary[i][j][k]
    return tuple(out)


def dense_ternary(ternary, u, v, w):
    n = len(u)
    out = [ZERO] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[l] = out[l] + u[i] * v[j] * w[k] * ternary[i][j][k][l]
    return tuple(out)


def dense_apply(rows, v):
    n = len(v)
    return tuple(sum((rows[i][j] * v[j] for j in range(n)), ZERO) for i in range(n))


def dense_product(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)) for i in range(n)
    )


def dense_power(rows, k):
    n = len(rows)
    out = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    for _ in range(k):
        out = dense_product(out, rows)
    return out


@pytest.mark.parametrize("dim, seed", CASES)
def test_products_match_dense_reference(dim, seed):
    rng = random.Random(seed)
    binary = _tensor(rng, dim, 2)
    ternary = _tensor(rng, dim, 3)
    alg = HomAlgebra(dim, binary=binary, ternary=ternary)
    vectors = [_coords(rng, dim) for _ in range(4)] + [Vector.basis(i, dim).coords for i in range(dim)]
    vectors.append((ZERO,) * dim)
    for u in vectors:
        for v in vectors[:4]:
            assert alg.eval_binary(Vector(u), Vector(v)).coords == dense_binary(binary, u, v)
            assert alg.eval_ternary(Vector(v), Vector(u), Vector(v)).coords == dense_ternary(ternary, v, u, v)
    for i in range(dim):
        for j in range(dim):
            assert alg.binary[i][j] == binary[i][j]
            assert alg.ternary[i][j][(i + j) % dim] == ternary[i][j][(i + j) % dim]


@pytest.mark.parametrize("dim, seed", CASES)
def test_linear_maps_match_dense_reference(dim, seed):
    rng = random.Random(seed)
    rows = _matrix(rng, dim)
    other = _matrix(rng, dim)
    m = LinearMap(rows)
    for _ in range(4):
        v = _coords(rng, dim)
        assert m.apply(Vector(v)).coords == dense_apply(rows, v)
    for j in range(dim):
        assert m.column(j).coords == tuple(row[j] for row in rows)
    assert m.compose(LinearMap(other)).rows == dense_product(rows, other)
    # powers of a sparse rational map: symbolic powers grow fast
    sparse = tuple(tuple(c if c.is_rational() else ZERO for c in row) for row in rows)
    for k in range(5):
        assert LinearMap(sparse).power(k).rows == dense_power(sparse, k)


def test_vector_sums_and_scaling_match_coordinatewise_arithmetic():
    rng = random.Random(7)
    for dim in (3, 4, 5):
        for _ in range(10):
            u, v = _coords(rng, dim), _coords(rng, dim)
            s = _scalar(rng)
            assert (Vector(u) + Vector(v)).coords == tuple(a + b for a, b in zip(u, v))
            assert (Vector(u) - Vector(v)).coords == tuple(a - b for a, b in zip(u, v))
            assert (-Vector(u)).coords == tuple(-a for a in u)
            assert Vector(u).scale(s).coords == tuple(a * s for a in u)
            assert (Vector(u) - Vector(u)).is_zero()
    # however a vector was made, equality and hashing follow dim and coords
    m = LinearMap(_matrix(rng, 3))
    binary = _tensor(rng, 3, 2)
    alg = HomAlgebra(3, binary=binary)
    e = [Vector.basis(i, 3) for i in range(3)]
    made = e + [Vector((1, 0, 0)), Vector((0, 0, 0)), Vector.zero(3), e[0] - e[0], e[0] + e[1] - e[1]]
    made += [Vector((0,)), Vector((0, 0)), Vector.zero(2), Vector.basis(0, 2)]
    made += [m.column(j) for j in range(3)] + [Vector(col) for col in zip(*m.rows)] + [m.apply(x) for x in e]
    made += [alg.eval_binary(x, y) for x in e for y in e] + [Vector(cell) for row in binary for cell in row]
    for a in made:
        for b in made:
            assert (a == b) == (a.dim == b.dim and a.coords == b.coords)
            if a == b:
                assert hash(a) == hash(b)
    assert Vector((0,)) != Vector((0, 0))


def test_public_vector_constructor_still_coerces_and_rejects():
    v = Vector([1, F(1, 2)])
    assert v.coords == (Scalar.rational(1), Scalar.rational(1, 2))
    assert all(isinstance(c, Scalar) for c in v.coords)
    with pytest.raises(TypeError):
        Vector([1.5])
    with pytest.raises(TypeError):
        LinearMap(((1.5,),))


def test_dimension_mismatches_still_raise():
    alg = HomAlgebra(2)
    two, three = Vector((1, 2)), Vector((1, 2, 3))
    with pytest.raises(DimensionMismatch):
        two + three
    with pytest.raises(DimensionMismatch):
        two - three
    with pytest.raises(DimensionMismatch):
        alg.eval_binary(two, three)
    with pytest.raises(DimensionMismatch):
        alg.eval_ternary(two, two, three)
    with pytest.raises(DimensionMismatch):
        LinearMap.identity(2).apply(three)
    with pytest.raises(DimensionMismatch):
        LinearMap.identity(2).compose(LinearMap.identity(3))
    with pytest.raises(DimensionMismatch):
        LinearMap(((1, 2),))
    with pytest.raises(DimensionMismatch):
        HomAlgebra(2, binary=(((1, 2), (1, 2)),))


def test_algebra_equality_ignores_the_nonzero_index():
    rng = random.Random(11)
    binary = _tensor(rng, 3, 2)
    ternary = _tensor(rng, 3, 3)
    as_scalars = HomAlgebra(3, binary=binary, ternary=ternary)
    as_fractions = HomAlgebra(
        3,
        binary=tuple(tuple(tuple(c.as_fraction() if c.is_rational() else c for c in cell) for cell in row) for row in binary),
        ternary=ternary,
    )
    assert as_scalars == as_fractions
    # equality reads the stored cells, whatever order a builder wrote each
    # cell's coordinates in, and nothing else
    reordered = as_scalars.replace()
    reordered._products = {
        kind: tensor(3, arity, lambda idx: dict(reversed(cell_at(as_scalars._products[kind], idx).items())))
        for kind, arity in PRODUCTS
    }
    assert reordered == as_scalars
    cleared = as_scalars.replace()
    cleared._products = {**cleared._products, "binary": tensor(3, 2, lambda idx: {})}
    assert cleared != as_scalars and cleared.binary == zero_tensor(3, 2)
    assert as_scalars != as_scalars.replace(binary=_tensor(rng, 3, 2))
    assert LinearMap(_matrix(random.Random(3), 3)) == LinearMap(_matrix(random.Random(3), 3))


# -- against plain Fraction polynomials ------------------------------------
#
# A reference polynomial is a dict {monomial: Fraction} with no zero values,
# multiplied and added here with Fraction arithmetic only, so neither the
# int-or-Fraction coefficient form nor the +-1 short-cuts of the kernels and
# of Scalar.__mul__ take part in it.


def plain(s):
    return {mono: F(c) for mono, c in s.terms()}


def p_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, F(0)) + c
    return {mono: c for mono, c in out.items() if c}


def p_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, F(0)) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def p_product(*factors):
    out = {(): F(1)}
    for f in factors:
        out = p_mul(out, f)
    return out


def plain_binary(binary, u, v):
    n = len(u)
    out = [{} for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        out[k] = p_add(out[k], p_product(plain(u[i]), plain(v[j]), plain(binary[i][j][k])))
    return out


def plain_ternary(ternary, u, v, w):
    n = len(u)
    out = [{} for _ in range(n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        out[l] = p_add(out[l], p_product(plain(u[i]), plain(v[j]), plain(w[k]), plain(ternary[i][j][k][l])))
    return out


def plain_apply(rows, v):
    n = len(v)
    out = [{} for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        out[i] = p_add(out[i], p_product(plain(rows[i][j]), plain(v[j])))
    return out


def nonzero(coords):
    return {k: c for k, c in enumerate(coords) if not c.is_zero()}


def handed_over(v):
    """The sparse vector the kernel gave Vector._of, checked against the
    coordinates: it holds exactly the nonzero ones, each in stored form."""
    assert v._d == nonzero(v.coords)
    assert all(map(stored, v._d.values()))
    return [plain(c) for c in v.coords]


def _unit_scalar(rng):
    """Mostly +-1, some zeros and a few non-unit rationals."""
    return Scalar.rational(rng.choice((1, -1, 1, -1, 0, 0, F(1, 3), -2)))


def _dense_rational(rng):
    return Scalar.rational(F(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4))))


OPERANDS = {
    "unit": _unit_scalar,
    "rational": _dense_rational,
    "symbolic": lambda rng: _scalar(rng) or Scalar.parameter("b"),
}


def _signed_basis(dim):
    return [Vector.basis(i, dim) for i in range(dim)] + [-Vector.basis(i, dim) for i in range(dim)]


@pytest.mark.parametrize("kind", sorted(OPERANDS))
@pytest.mark.parametrize("dim, seed", [(3, 1), (4, 2)])
def test_kernels_match_plain_fraction_reference(kind, dim, seed):
    rng = random.Random(seed)
    make = OPERANDS[kind]

    def cell(idx):
        return tuple(make(rng) if rng.random() < 0.5 else ZERO for _ in range(dim))

    binary = tensor(dim, 2, cell)
    ternary = tensor(dim, 3, cell)
    alg = HomAlgebra(dim, binary=binary, ternary=ternary)
    operands = _signed_basis(dim) + [Vector(tuple(make(rng) for _ in range(dim))) for _ in range(3)]
    for u in operands:
        for v in operands[::3]:
            assert handed_over(alg.eval_binary(u, v)) == plain_binary(binary, u.coords, v.coords)
            assert handed_over(alg.eval_ternary(v, u, v)) == plain_ternary(ternary, v.coords, u.coords, v.coords)
    rows = tuple(tuple(make(rng) for _ in range(dim)) for _ in range(dim))
    other = tuple(tuple(make(rng) for _ in range(dim)) for _ in range(dim))
    m = LinearMap(rows)
    for v in operands:
        assert handed_over(m.apply(v)) == plain_apply(rows, v.coords)
    product = m.compose(LinearMap(other))
    assert product._cols == tuple(nonzero(col) for col in zip(*product.rows))
    assert all(stored(c) for col in product._cols for c in col.values())
    for j in range(dim):
        column = [row[j] for row in other]
        assert [plain(row[j]) for row in product.rows] == plain_apply(rows, column)


def test_kernels_drop_coordinates_that_cancel():
    # e1*e2 = e3 = e2*e1 and {e1,e1,e1} = e3 = {e2,e1,e1}
    e3 = (ZERO, ZERO, ONE)
    binary = tensor(3, 2, lambda idx: e3 if sorted(idx) == [0, 1] else (ZERO,) * 3)
    ternary = tensor(3, 3, lambda idx: e3 if idx in ((0, 0, 0), (1, 0, 0)) else (ZERO,) * 3)
    alg = HomAlgebra(3, binary=binary, ternary=ternary)
    e = _signed_basis(3)
    plus, minus = e[0] + e[1], e[0] - e[1]
    # (e1 + e2)(e1 - e2) = -e1e2 + e2e1 = 0
    for result in (alg.eval_binary(plus, minus), alg.eval_ternary(minus, e[0], e[0])):
        assert result.is_zero()
        assert result._d == {}
    half = Scalar.rational(1, 2)
    assert alg.eval_binary(plus.scale(half), Vector((1, 1, 1))).coords == (ZERO, ZERO, ONE)
    # columns e1 and -e1 applied to e1 + e2, and composed with the column (1, 1, 0)
    m = LinearMap(((1, -1, 0), (0, 0, 0), (0, 0, 0)))
    assert m.apply(plus).is_zero()
    assert m.apply(plus)._d == {}
    assert m.compose(LinearMap(((1, 0, 0), (1, 0, 0), (0, 0, 0))))._cols == ({}, {}, {})
