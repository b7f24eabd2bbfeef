"""The sparse form of vectors: the kernels and the identity tables.

The kernels (``LinearMap._apply``, ``HomAlgebra._binary``/``_ternary``,
``_scale`` and ``_add``) take and return dicts {coordinate: value}, each
value a nonzero int, a Fraction that is not integral, or a Scalar that is
not constant.
They are checked against the dense references of ``test_kernels`` and the
public Vector methods, coordinate by coordinate, on random sparse operands
and on operands whose products cancel.

``check_identity`` compares the two sides' tables key by key with dict
equality, which is exact only if every stored value is a non-empty dict
whose values are in that form: no zero, no constant Scalar and no integral
Fraction.  That invariant is checked on every table the engine
builds while it checks every built-in suite on the seeded tensors.
"""

import random

import pytest

from test_kernels import CASES, _coords, _matrix, _scalar, _tensor, dense_apply, dense_binary, dense_ternary, stored
from test_round_trip import _algebra

from hombol.algebra import HomAlgebra, LinearMap, Vector, _add, _scale, is_morphism, tensor
from hombol.catalog import get
from hombol.constructions import nth_derived
from hombol.identities import SUITES, _Tables, _compile, check_identity, check_suite, evaluate, parse_identity
from hombol.scalars import ONE, ZERO, Scalar, _value_of
from hombol.serialization import emit_algebra


def sparse(coords):
    """The stored form of a sequence of Scalars."""
    return {k: _value_of(c) for k, c in enumerate(coords) if c}


def assert_sparse(v):
    """v is a sparse vector: every value a nonzero int, a Fraction that is
    not integral, or a Scalar that is not constant."""
    assert isinstance(v, dict)
    assert all(map(stored, v.values())), v


def _cancelling_algebra():
    """e1*e2 = e3 = e2*e1, {e1,e1,e1} = e3 = {e2,e1,e1}: (e1 + e2)(e1 - e2) = 0."""
    e3 = (ZERO, ZERO, ONE)
    binary = tensor(3, 2, lambda idx: e3 if sorted(idx) == [0, 1] else (ZERO,) * 3)
    ternary = tensor(3, 3, lambda idx: e3 if idx in ((0, 0, 0), (1, 0, 0)) else (ZERO,) * 3)
    return HomAlgebra(3, binary=binary, ternary=ternary)


@pytest.mark.parametrize("dim, seed", CASES)
def test_sparse_kernels_match_the_dense_vectors(dim, seed):
    rng = random.Random(seed)
    binary, ternary, rows = _tensor(rng, dim, 2), _tensor(rng, dim, 3), _matrix(rng, dim)
    alg = HomAlgebra(dim, binary=binary, ternary=ternary)
    m = LinearMap(rows)
    # mostly one or two nonzero coordinates, as in the identity tables
    operands = [_coords(rng, dim) for _ in range(3)]
    operands += [tuple(_scalar(rng) if rng.random() < 0.3 else ZERO for _ in range(dim)) for _ in range(5)]
    operands.append((ZERO,) * dim)
    for u in operands:
        m_u = m._apply(sparse(u))
        assert_sparse(m_u)
        assert Vector._of(m_u, dim) == m.apply(Vector(u)) == Vector(dense_apply(rows, u))
        s = _scalar(rng)
        assert Vector._of(_scale(sparse(u), s), dim) == Vector(u).scale(s) == Vector(tuple(c * s for c in u))
        for v in operands[::2]:
            uv = alg._binary(sparse(u), sparse(v))
            vuv = alg._ternary(sparse(v), sparse(u), sparse(v))
            total = _add(sparse(u), sparse(v))
            for value in (uv, vuv, total):
                assert_sparse(value)
            assert Vector._of(uv, dim) == alg.eval_binary(Vector(u), Vector(v)) == Vector(dense_binary(binary, u, v))
            assert Vector._of(vuv, dim) == alg.eval_ternary(Vector(v), Vector(u), Vector(v))
            assert Vector._of(vuv, dim) == Vector(dense_ternary(ternary, v, u, v))
            assert Vector._of(total, dim) == Vector(u) + Vector(v)


def test_sparse_kernels_drop_what_cancels():
    alg = _cancelling_algebra()
    plus, minus = {0: ONE, 1: ONE}, {0: ONE, 1: -ONE}
    assert alg._binary(plus, minus) == {}
    assert alg._ternary(minus, {0: ONE}, {0: ONE}) == {}
    assert alg._binary(plus, {0: ONE, 1: ONE, 2: ONE}) == {2: Scalar.rational(2)}
    m = LinearMap(((1, -1, 0), (1, 1, 0), (0, 0, 0)))
    assert m._apply(plus) == {1: Scalar.rational(2)}
    assert m._apply({2: ONE}) == {}
    assert _add(plus, minus) == {0: Scalar.rational(2)}
    assert _add(plus, {0: -ONE, 1: -ONE}) == {}
    assert _scale(plus, ZERO) == {}
    assert Vector._of({}, 3) == Vector.zero(3)
    assert Vector.zero(3)._d == {}


@pytest.fixture
def stored_tables(monkeypatch):
    """Every table the engine builds, as it builds it."""
    seen = []
    build = _Tables._tabulate

    def record(self, *args):
        table = build(self, *args)
        seen.append(table)
        return table

    monkeypatch.setattr(_Tables, "_tabulate", record)
    return seen


def _check_all(alg):
    for suite in SUITES.values():
        for e in (0, 1, 2):
            check_suite(alg, suite, e)


def assert_stored(tables):
    assert tables
    for table in tables:
        for value in table.values():
            assert value
            assert_sparse(value)


@pytest.mark.parametrize("dim, seed", CASES)
@pytest.mark.parametrize("symbolic", [False, True], ids=["rational", "symbolic"])
def test_every_stored_table_value_is_a_nonempty_sparse_vector(stored_tables, dim, seed, symbolic):
    _check_all(_algebra(dim, seed, symbolic))
    assert_stored(stored_tables)


def test_every_stored_table_value_is_a_nonempty_sparse_vector_on_passing_algebras(stored_tables):
    # the catalog entries pass most suites, so their tables are complete
    for name, sign in (("A2", None), ("A3", "+"), ("HB_A2", None), ("HB_A3", "-")):
        _check_all(get(name, sign=sign))
    assert sum(len(table) for table in stored_tables) > 1000
    assert_stored(stored_tables)


def test_a_sum_drops_the_coordinates_and_the_keys_that_cancel():
    # e1*e2 = e1 + e2 and e2*e1 = -e1: x*y + y*x is e2 at both mixed pairs
    zero = (ZERO, ZERO)
    binary = ((zero, (ONE, ONE)), ((-ONE, ZERO), zero))
    alg = HomAlgebra(2, binary=binary)
    node = parse_identity("x*y + y*x = 0").lhs
    steps = []
    step, names = _compile(node, steps, {})
    assert names == ("x", "y")
    dom = (range(2), range(2))
    assert _Tables(alg, 1, steps).table(step, dom) == {(0, 1): {1: ONE}, (1, 0): {1: ONE}}
    e1, e2 = Vector.basis(0, 2), Vector.basis(1, 2)
    assert evaluate(node, alg, {"x": e1, "y": e2}) == e2
    # made skew, the sum cancels everywhere and no key is left
    skew = alg.replace(binary=((zero, (ONE, ONE)), ((-ONE, -ONE), zero)))
    assert _Tables(skew, 1, steps).table(step, dom) == {}
    assert evaluate(node, skew, {"x": e1, "y": e2}).is_zero()
    assert check_identity(skew, parse_identity("x*y + y*x = 0")) is None


def test_no_kernel_writes_to_the_dicts_that_vectors_share():
    """A Vector shares its dict with the map column or product cell it came
    from, the kernel result it wraps and the identity tables, and an algebra
    built from another may share its cells, so no kernel may write to one."""
    rng = random.Random(5)
    m = LinearMap(_matrix(rng, 3))
    alg = HomAlgebra(3, binary=_tensor(rng, 3, 2), ternary=_tensor(rng, 3, 3), twist=m)
    columns = [m.column(j) for j in range(3)]
    operands = [Vector(_coords(rng, 3)) for _ in range(3)] + [Vector.basis(1, 3)]
    env = dict(zip("xyzuvw", operands + columns[:2]))
    shared = [v._d for v in columns + operands] + list(m._cols) + [env[name]._d for name in env]
    shared += [cell for _, _, cell in alg._cells()]

    def snapshot():
        return [[(k, c.terms() if isinstance(c, Scalar) else c) for k, c in d.items()] for d in shared]

    before = snapshot()
    u, v, w = operands[:3]
    for x in columns + operands:
        m.apply(x)
        x.scale(Scalar.rational(2, 3))
        u + x, u - x, x + u, -x
    alg.eval_ternary(u, v, w)
    alg.eval_ternary(columns[0], operands[3], columns[0])
    alg.eval_binary(columns[1], u)
    m.compose(m), m.power(3)
    list(alg.cells()), alg.binary, alg.ternary, alg.all_variables(), emit_algebra(alg)
    is_morphism(m, alg, alg), is_morphism(LinearMap.identity(3), alg, alg)
    derived = nth_derived(alg, 1)
    derived.eval_ternary(u, v, w), is_morphism(m, derived, derived)
    untwisted = alg.replace(twist=LinearMap.identity(3))
    untwisted.eval_binary(u, v), nth_derived(untwisted, 2), untwisted == alg
    for suite in SUITES.values():
        for ident in suite.identities:
            for side in (ident.lhs, ident.rhs):
                evaluate(side, alg, {name: env[name] for name in ident.variables}, 2)
            check_identity(alg, ident, 1)
    assert snapshot() == before
