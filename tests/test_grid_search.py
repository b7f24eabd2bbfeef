"""grid_search against the searches it replaced.

``brute_force_grid_search`` below is the first implementation, verbatim but
for its name: it evaluates every equation at every point of ``grid **
unknowns`` with ``Scalar.evaluate``.  The depth-first search must return the
identical ordered list of maps on every system here, including ones where no
equation prunes (the zero algebra), where every branch dies at once (a
nonzero constant), and where exactness decides.  The cases at the end reach
each branch of its elimination: a coefficient that vanishes on some
prefixes, linear equations that disagree, roots off the grid or off its
scaled lattice, and depths whose equations are all quadratic.

``fraction_grid_search`` is the second implementation, the depth-first
search that tried every grid value at each depth in Fraction arithmetic.  It
is the oracle, and the clock to beat, where a brute-force scan is out of
reach.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from fractions import Fraction as F

import pytest

from hombol import morphisms
from hombol.algebra import HomAlgebra, LinearMap
from hombol.catalog import get
from hombol.errors import ParseError
from hombol.morphisms import (
    DEFAULT_GRID,
    ConstraintSystem,
    _compile,
    _entries,
    generate_constraints,
    grid_search,
    unknown_names,
)
from hombol.scalars import ZERO, Scalar, parse_scalar
from hombol.serialization import parse_algebra


def brute_force_grid_search(system, values, parameter_bindings=None):
    """All unknown assignments over a finite value grid solving the system.

    Every algebra parameter must be bound to a rational first.  Candidates
    are enumerated, and returned, in lexicographic order of the unknown
    vector over the ascending value grid; the zero map, when it solves the
    system, is simply one of them.
    """
    bindings = {name: Fraction(v) for name, v in (parameter_bindings or {}).items()}
    unbound = sorted(system.params - set(bindings))
    if unbound:
        raise ValueError(f"unbound parameter {unbound[0]!r}")
    grid = sorted({Fraction(v) for v in values})
    bound_eqs = [eq.substitute(bindings) for eq in system.equations] if bindings else list(system.equations)
    bound_eqs = [eq for eq in bound_eqs if not eq.is_zero()]

    solutions = []
    n = system.dim
    for combo in itertools.product(grid, repeat=len(system.unknowns)):
        assignment = dict(zip(system.unknowns, combo))
        if all(eq.evaluate(assignment) == 0 for eq in bound_eqs):
            solutions.append(
                LinearMap.from_columns(
                    tuple(
                        tuple(Scalar.rational(combo[j * n + i]) for i in range(n))
                        for j in range(n)
                    )
                )
            )
    return solutions


def fraction_grid_search(system, values, parameter_bindings=None):
    """The depth-first search that tries every grid value at each depth: each
    equation, scaled by the lcm of its denominators, is tested in int and
    Fraction arithmetic as soon as its last unknown is bound."""
    bindings = {name: Fraction(v) for name, v in (parameter_bindings or {}).items()}
    grid = [int(v) if v.denominator == 1 else v for v in sorted({Fraction(v) for v in values})]
    position = {name: k for k, name in enumerate(system.unknowns)}
    filed = [[] for _ in system.unknowns]
    for eq in system.equations:
        terms = (eq.substitute(bindings) if bindings else eq).terms()
        if not terms:
            continue
        scale = math.lcm(*(c.denominator for _, c in terms))
        rows = tuple(
            (c.numerator * (scale // c.denominator), tuple((position[name], e) for name, e in mono))
            for mono, c in terms
        )
        last = max((k for _, factors in rows for k, _ in factors), default=None)
        if last is None:
            return []
        filed[last].append(rows)

    def vanishes(rows, x):
        total = 0
        for c, factors in rows:
            for k, e in factors:
                c *= x[k] ** e
            total += c
        return total == 0

    solutions = []
    size, n = len(system.unknowns), system.dim
    x = [None] * size
    stack = [iter(grid)]
    while stack:
        k = len(stack) - 1
        if k == size:
            columns = [[Scalar.rational(v) for v in x[j * n:(j + 1) * n]] for j in range(n)]
            solutions.append(LinearMap.from_columns(columns))
            stack.pop()
            continue
        for v in stack[k]:
            x[k] = v
            if all(vanishes(rows, x) for rows in filed[k]):
                stack.append(iter(grid))
                break
        else:
            stack.pop()
    return solutions


def _same(system, values, bindings=None):
    """Both searches agree, map by map and in order; returns the maps."""
    expected = brute_force_grid_search(system, values, bindings)
    found = grid_search(system, values, bindings)
    assert [m.rows for m in found] == [m.rows for m in expected]
    return found


LAMBDAS = (F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2))


@pytest.mark.parametrize(
    "name, sign, lam",
    [("A1", None, None)] + [("A2", None, lam) for lam in LAMBDAS]
    + [("A3", sign, lam) for sign in "+-" for lam in LAMBDAS],
)
def test_catalog_entries_on_the_default_grid(name, sign, lam):
    system = generate_constraints(get(name, sign=sign))
    found = _same(system, DEFAULT_GRID, None if lam is None else {"lambda": lam})
    assert any(m.is_zero() for m in found)


def test_scaled_relabelled_so3():
    # the cross product scaled by 3/2 on the basis (v, u, w): the zero map
    # plus the 24 signed permutation matrices
    doc = (
        "dim 3\nbasis u v w\ncomplete skew-binary\n"
        "binary v u = 3/2*w\nbinary u w = 3/2*v\nbinary w v = 3/2*u\n"
    )
    found = _same(generate_constraints(parse_algebra(doc)), (-1, 0, 1))
    assert len(found) == 25


def _random_case(dim, seed):
    """A sparse algebra with fractional and symbolic entries, and a value for
    its parameter p.  A binary cell is empty with probability 0.8 and a
    ternary one with 0.95; the others are one basis vector times c or c*p."""
    rng = random.Random(f"grid-search/{dim}/{seed}")

    def cell(empty):
        if rng.random() < empty:
            return (ZERO,) * dim
        coeff = Scalar.rational(F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 3))))
        if rng.random() < 0.4:
            coeff = coeff * Scalar.parameter("p")
        k = rng.randrange(dim)
        return tuple(coeff if i == k else ZERO for i in range(dim))

    binary = tuple(tuple(cell(0.8) for _ in range(dim)) for _ in range(dim))
    ternary = tuple(tuple(tuple(cell(0.95) for _ in range(dim)) for _ in range(dim)) for _ in range(dim))
    system = generate_constraints(HomAlgebra(dim, params=("p",), binary=binary, ternary=ternary))
    return system, {"p": F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))}


@pytest.mark.parametrize(
    "dim, seed, grid",
    [(2, seed, DEFAULT_GRID) for seed in range(6)] + [(3, seed, (F(-1, 2), 0, 1)) for seed in range(3)],
)
def test_random_sparse_algebras(dim, seed, grid):
    system, bindings = _random_case(dim, seed)
    _same(system, grid, bindings)


def test_random_algebras_have_maps_besides_zero():
    # guards the cases above against all degenerating to "zero map only"
    counts = []
    for seed in range(6):
        system, bindings = _random_case(2, seed)
        counts.append(len(grid_search(system, DEFAULT_GRID, bindings)))
    assert sum(c > 1 for c in counts) >= 3


def test_zero_algebra_every_point_solves_in_order():
    system = generate_constraints(HomAlgebra(2))
    assert system.equations == ()
    found = _same(system, DEFAULT_GRID)
    assert len(found) == len(DEFAULT_GRID) ** 4 == 2401
    assert [tuple(m.column(0).coords) for m in found[:3]] == [
        (Scalar.rational(-2), Scalar.rational(-2)),
    ] * 3


@pytest.mark.parametrize("b", (F(2), F(-1), F(1, 2)))
def test_twisted_algebra_adds_intertwining_equations(b):
    system = generate_constraints(get("HB_A2", lam=F(1), a=F(0), b=b))
    found = _same(system, DEFAULT_GRID)
    assert len(found) >= 2  # the zero map and the identity at least


def test_twisted_algebra_with_symbolic_parameters_bound_at_search():
    system = generate_constraints(get("HB_A3", sign="+"))
    assert system.params >= {"lambda", "b"}
    bindings = {name: value for name, value in zip(sorted(system.params), (F(1), F(-1), F(1, 2)))}
    _same(system, DEFAULT_GRID, bindings)


def _system(*equations, params=()):
    return ConstraintSystem(
        dim=2,
        unknowns=unknown_names(2),
        params=frozenset(params),
        equations=tuple(parse_scalar(e) for e in equations),
    )


def test_binding_to_a_nonzero_constant_means_no_solutions():
    system = _system("a1*b2 - a2", "p^2 - 4", "a1 - b1", params=("p",))
    assert _same(system, DEFAULT_GRID, {"p": 3}) == []
    # at p = 2 the constant vanishes and the other equations decide
    assert len(_same(system, DEFAULT_GRID, {"p": 2})) > 1


def test_binding_that_cancels_an_equation_drops_it():
    system = _system("p*a1 - a1", "a2 - b1", params=("p",))
    found = _same(system, DEFAULT_GRID, {"p": 1})
    assert len(found) == len(DEFAULT_GRID) ** 3


def test_unsorted_grid_with_duplicates_and_fractions():
    system = generate_constraints(get("A3", sign="-"))
    grid = (1, F(-1, 2), 0, F(2, 4), 1, -1, F(1, 2), 0, F(-4, 2))
    found = _same(system, grid, {"lambda": F(-1, 2)})
    assert found == _same(system, sorted(set(map(F, grid))), {"lambda": F(-1, 2)})


THIRDS = (F(-2, 3), F(-1, 3), 0, F(1, 3), F(2, 3), 1, F(4, 3), 2)


@pytest.mark.parametrize(
    "equations, grid, count",
    [
        # a float evaluation finds 71 of these 83 maps: each lost one is a
        # sum of terms k/7 * (thirds)^3 that cancels exactly but rounds
        (("-1/7*a1^2*b1 - 1/7*a2^2*b1 - 1/7*b1*b2", "3/7*a1*a2*b2 + 3/7*a1^3 + 3/7*a2*b1"), THIRDS, 83),
        # mixed denominators: the lcm scaling must not drop one of them
        (("3/7*a1 - 1/2*b1", "1/3*a2*b2 - 2/5*a2 + 1/5*b1*a2"), THIRDS + (F(-3, 7), F(3, 7), F(6, 7)), 22),
    ],
    ids=["thirds-sevenths", "mixed-denominators"],
)
def test_rational_grids_are_decided_exactly(equations, grid, count):
    """Zeros that only exact rational arithmetic finds: integer rows over
    fractional grid values must give exactly the exhaustive scan's maps."""
    assert len(_same(_system(*equations), grid)) == count


def test_unbound_parameter_is_refused_before_searching():
    system = _system("p*a1", params=("p", "q"))
    with pytest.raises(ValueError, match="^unbound parameter 'p'$"):
        grid_search(system, DEFAULT_GRID)
    with pytest.raises(ValueError, match="^unbound parameter 'q'$"):
        grid_search(system, DEFAULT_GRID, {"p": 1})
    # a name the system does not declare never reaches a search: the system
    # refuses it when it is made
    with pytest.raises(ParseError, match="^undeclared symbol 'p'$"):
        _system("p*a1 - b2")


def test_inexact_grid_values_and_bindings_are_refused():
    # a float grid value once gave 15 maps built on the binary fraction of 0.1
    system = generate_constraints(get("A2", lam=1))
    with pytest.raises(TypeError):
        grid_search(system, [0, 1, 0.1])
    with pytest.raises(TypeError):
        grid_search(system, [0, 1, "1/2"])
    symbolic = generate_constraints(get("A2"))
    with pytest.raises(TypeError):
        grid_search(symbolic, DEFAULT_GRID, {"lambda": 0.5})
    assert grid_search(symbolic, [F(0), F(1)], {"lambda": F(1)}) == grid_search(system, [0, 1])


def test_a_linear_coefficient_that_vanishes_on_some_prefixes():
    # linear in b1 with coefficient a1: at a1 = 0 the equation is -a2 alone,
    # so b1 is free there; elsewhere b1 = a2/a1 must lie on the grid
    found = _same(_system("a1*b1 - a2"), DEFAULT_GRID)
    assert sum(_entries(m)[0].is_zero() for m in found) == 7**2
    # the same with a quadratic whose leading coefficient vanishes at a1 = 0,
    # where it becomes linear in a2
    assert len(_same(_system("a1*a2^2 - a2", "b1 - a1"), DEFAULT_GRID)) > 7


@pytest.mark.parametrize(
    "equations",
    [("a2 - a1", "a2 - 2*a1"), ("a2 - 2*a1", "a2 - a1"), ("a1*a2 - 1", "a2 - a1"), ("b1 - a2", "a1*b1 - a2 - b1")],
)
def test_two_linear_equations_at_one_depth_with_different_roots(equations):
    # both equations are filed at the same unknown and are linear in it; a
    # solver that keeps the first root returns maps that fail the second
    found = _same(_system(*equations), DEFAULT_GRID)
    assert 0 < len(found) < len(fraction_grid_search(_system(equations[0]), DEFAULT_GRID))


@pytest.mark.parametrize(
    "equations, grid",
    [
        # the root a1 + 1 leaves the grid at a1 = 2, and on the default grid
        # at a1 = 1/2 as well
        (("a2 - a1 - 1",), DEFAULT_GRID),
        (("a2 - a1 - 1",), (-1, 0, 1, 2)),
        # the root a1/2 is not an integer on the lattice of an integer grid,
        # and a1/3 not on the doubled lattice of the default grid
        (("2*a2 - a1",), (-2, -1, 0, 1, 2)),
        (("3*b2 - a1*b1",), DEFAULT_GRID),
    ],
)
def test_roots_off_the_grid_and_off_its_lattice(equations, grid):
    found = _same(_system(*equations), grid)
    assert 0 < len(found) < len(set(map(F, grid))) ** 3


MIXED = (F(-5, 3), F(-1, 2), 0, F(3, 4), 2)  # the lcm of the denominators is 12


@pytest.mark.parametrize(
    "equations, count",
    [
        # (a1, a2) is (-5/3, 3/4) or (3/4, -5/3); (b1, b2) is 0 or (3/4, -1/2)
        (("a1*a2 + 5/4", "4*b1 + 6*b2"), 4),
        (("4*a2 - 3*a1*b1", "3*b2^2 + 5*b2"), 18),
        (("12*a1^2*a2 - 4*a2 + a1", "b1*b2 + 5/4"), 4),
    ],
)
def test_mixed_denominators_and_negative_values(equations, count):
    assert len(_same(_system(*equations), MIXED)) == count


@pytest.mark.parametrize("name, sign, lam", [("A2", None, F(-5, 3)), ("A3", "+", F(3, 4)), ("A3", "-", F(-1, 2))])
def test_catalog_entries_on_a_mixed_grid(name, sign, lam):
    # 1 joins the grid so that the identity is on it
    found = _same(generate_constraints(get(name, sign=sign)), MIXED + (1,), {"lambda": lam})
    assert len(found) >= 2  # the zero map and the identity at least


@pytest.mark.parametrize("seed", range(4))
def test_random_sparse_algebras_on_a_mixed_grid(seed):
    system, bindings = _random_case(2, seed)
    _same(system, MIXED, bindings)


def test_a_depth_whose_equations_are_all_quadratic():
    # both equations are filed at a2 and quadratic in it: a2^2 = a1 and
    # (a2 + 2 a1)(a2 - a1) = 0 meet at a1 = a2 = 0 and a1 = a2 = 1
    found = _same(_system("a2^2 - a1", "a2^2 + a1*a2 - 2*a1^2"), DEFAULT_GRID)
    assert len(found) == 2 * 7**2
    # quadratic at every depth
    assert len(_same(_system("a1^2 - 1", "a2^2 - a1*a2", "b1^2 - 4", "b2^2 - b1*b2 + a1 - 1"), DEFAULT_GRID)) == 8


def test_empty_grids_and_a_system_without_unknowns():
    for system in (generate_constraints(HomAlgebra(2)), generate_constraints(get("A1")), _system("a1 - 1")):
        assert _same(system, ()) == []
    # with no unknowns, the empty assignment is the one point of any grid
    empty = ConstraintSystem(dim=0, unknowns=(), params=frozenset(), equations=())
    assert len(_same(empty, ())) == len(_same(empty, DEFAULT_GRID)) == 1


SO3_DOC = "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = e3\nbinary e2 e3 = e1\nbinary e3 e1 = e2\n"


def test_so3_on_the_default_grid_is_zero_and_the_rotations():
    # an endomorphism of a simple Lie algebra is zero or an automorphism, and
    # the automorphisms of the cross product are the rotations; the only
    # rotations with entries on the default grid are the 24 signed
    # permutation matrices of determinant 1
    expected = [(0,) * 9]
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        for signs in itertools.product((1, -1), repeat=3):
            if (-1) ** inversions * math.prod(signs) == 1:
                # entry j*3 + i is the e_i coordinate of theta(e_j) = s_j e_perm(j)
                expected.append(tuple(signs[j] if perm[j] == i else 0 for j in range(3) for i in range(3)))
    expected.sort()
    assert len(expected) == 25
    found = grid_search(generate_constraints(parse_algebra(SO3_DOC)), DEFAULT_GRID)
    assert [_entries(m) for m in found] == [[Scalar.rational(v) for v in point] for point in expected]


def _fastest(search, system, grid, bindings):
    """search's maps and its shortest time of three runs."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        found = search(system, grid, bindings)
        times.append(time.perf_counter() - start)
    return [m.rows for m in found], min(times)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@pytest.mark.parametrize(
    "system, grid, bindings",
    [
        # the grid is cleared by the lcm of its denominators, here the
        # product of the first ten primes, so its integers grow
        (generate_constraints(get("A3", sign="+")), (0, 1, -1) + tuple(F(s, p) for p in PRIMES for s in (1, -1)),
         {"lambda": F(1, 3)}),
        # a sparse equation of high degree in the unknown it is filed at:
        # dense Horner evaluation would multiply 2,000 times per value
        (_system("a1^3*b2^2000 - a1*b2^1999 + a2*b1^3", "a1 - b1 + 2*a2"), MIXED, None),
    ],
    ids=["coprime-denominators", "sparse-high-degree"],
)
def test_hostile_input_searches_no_slower_than_before(system, grid, bindings):
    found, new = _fastest(grid_search, system, grid, bindings)
    expected, old = _fastest(fraction_grid_search, system, grid, bindings)
    assert found == expected
    assert len(found) > 1
    assert new <= old


def test_fraction_search_agrees_with_brute_force():
    # the second oracle against the first
    for seed in range(3):
        system, bindings = _random_case(2, seed)
        expected = brute_force_grid_search(system, DEFAULT_GRID, bindings)
        assert [m.rows for m in fraction_grid_search(system, DEFAULT_GRID, bindings)] == [m.rows for m in expected]


# --- the binding order ------------------------------------------------------------

UNKNOWNS = unknown_names(2)


def _seeded_system(seed):
    """Random polynomial equations in a1, a2, b1, b2 and a parameter p: one
    unknown is in no equation, the last equation is a multiple of p - 1, and
    with probability 1/2 an equation c*u^e forces some unknown u to zero."""
    rng = random.Random(f"binding-order/{seed}")
    idle = rng.choice(UNKNOWNS)
    used = [u for u in UNKNOWNS if u != idle]
    p = Scalar.parameter("p")

    def term():
        t = Scalar.rational(F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))))
        for u in rng.sample(used, rng.choice((0, 1, 1, 2, 2, 2, 3))):
            t = t * Scalar.parameter(u) ** rng.randint(1, 2)
        return t * p if rng.random() < 0.2 else t

    equations = [sum((term() for _ in range(rng.randint(2, 3))), ZERO) for _ in range(rng.randint(1, 3))]
    equations.append((p - 1) * (term() + Scalar.parameter(used[0])))
    if rng.random() < 0.5:
        forced = Scalar.rational(rng.choice((-2, 3))) * Scalar.parameter(rng.choice(used)) ** rng.randint(1, 2)
        equations.insert(rng.randrange(len(equations)), forced)
    system = ConstraintSystem(dim=2, unknowns=UNKNOWNS, params=frozenset({"p"}), equations=tuple(equations))
    return system, idle


# unsorted, with duplicates and a value written twice over different denominators
SHUFFLED = (1, F(-1, 2), 0, F(2, 4), -2, 1, F(1, 2), 0, 2)


SEEDS = range(16)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_systems_in_the_chosen_order_find_the_brute_force_maps(seed):
    system, idle = _seeded_system(seed)
    for p in (1, F(-1, 2)):  # p = 1 cancels the last equation
        _same(system, SHUFFLED, {"p": p})
        compiled = _compile(system, {"p": F(p)}, 2)
        if compiled is not None:
            # nothing is decided at or after the unknown in no equation
            order, filed = compiled
            assert not any(filed[order.index(UNKNOWNS.index(idle)):])


def test_the_seeded_systems_reorder_and_solve():
    # guards the cases above: most bind in an order other than the listed
    # one, and many find some maps but not every grid point
    reordered, counts = 0, []
    for seed in SEEDS:
        system, _ = _seeded_system(seed)
        for p in (1, F(-1, 2)):
            compiled = _compile(system, {"p": p}, 2)
            reordered += compiled is not None and compiled[0] != [0, 1, 2, 3]
            counts.append(len(grid_search(system, SHUFFLED, {"p": p})))
    assert reordered >= 16
    assert sum(0 < c < len(set(map(F, SHUFFLED))) ** 4 for c in counts) >= 10


def test_an_equation_that_forces_a_zero_drops_its_terms_elsewhere():
    # b1 = 0 leaves a2*b1^2 + a2 as a2 = 0, and a2 = 0 leaves the third
    # equation as -b2 = 0: each files at its own unknown, and a1 is free
    system = _system("b1", "a2*b1^2 + a2", "a1*a2 - b2 + a1*b1")
    order, filed = _compile(system, {}, 1)
    assert [UNKNOWNS[k] for k in order] == ["a2", "b1", "b2", "a1"]
    assert [len(equations) for equations in filed] == [1, 1, 1, 0]
    assert len(_same(system, SHUFFLED)) == len(set(map(F, SHUFFLED)))
    # a term left a nonzero constant once b1 = 0: nothing solves the system
    assert _compile(_system("b1^2", "a1*b1 + 3", "a2 - b2"), {}, 1) is None
    assert _same(_system("b1^2", "a1*b1 + 3", "a2 - b2"), SHUFFLED) == []


def test_the_chosen_orders_of_so3_and_a1():
    # so(3): no equation has fewer than 5 unknowns, and the first one is
    # decided at depth 4, where the listed order reaches depth 6 first
    so3 = generate_constraints(parse_algebra(SO3_DOC))
    order, filed = _compile(so3, {}, 1)
    assert [so3.unknowns[k] for k in order] == ["t1_1", "t2_2", "t3_3", "t1_2", "t2_1", "t1_3", "t3_1", "t2_3", "t3_2"]
    assert [len(equations) for equations in filed] == [0, 0, 0, 0, 1, 0, 1, 2, 5]
    # A1: b1 = 0 first, then a1, and b2 decided by a linear equation in it
    a1 = generate_constraints(get("A1"))
    order, filed = _compile(a1, {}, 2)
    assert [a1.unknowns[k] for k in order] == ["b1", "a1", "b2", "a2"]
    assert [len(equations) for equations in filed] == [1, 0, 3, 1]


def test_the_so3_search_makes_fewer_candidate_calls(monkeypatch):
    calls = []
    candidates = morphisms._candidates
    monkeypatch.setattr(morphisms, "_candidates", lambda *args: calls.append(1) or candidates(*args))
    found = grid_search(generate_constraints(parse_algebra(SO3_DOC)), (-1, 0, 1))
    assert len(found) == 25
    # binding the unknowns in their listed order took 1,911 calls
    assert len(calls) == 837
