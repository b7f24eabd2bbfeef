import random
from fractions import Fraction as F

import pytest

from hombol.algebra import LinearMap, Vector, zero_tensor
from hombol.catalog import get, get_twisted
from hombol.errors import MultilinearityError, ParseError
from hombol.identities import (
    SUITES,
    Binary,
    Sum,
    Var,
    check_identity,
    check_suite,
    evaluate,
    format_node,
    parse_identity,
    parse_suite,
)
from hombol.scalars import Scalar


# --- parsing ---------------------------------------------------------------


def test_parse_simple_identity_shape():
    ident = parse_identity("x*y = -y*x", name="skew")
    assert ident.name == "skew"
    assert ident.variables == ("x", "y")
    assert ident.lhs == Binary(Var("x"), Var("y"))


def test_variables_in_appearance_order():
    assert parse_identity("{z,y,x} = 0").variables == ("z", "y", "x")


def test_rational_prefix_with_and_without_star():
    a = parse_identity("1/3 {x,y,z} = 0")
    b = parse_identity("1/3*{x,y,z} = 0")
    assert a.lhs == b.lhs


def test_twist_power_sugar():
    ident = parse_identity("A^2(x) = A(A(x))")
    assert check_identity(get_twisted("HB_A2"), ident) is None


def test_cyclic_sum_parse_and_format():
    ident = parse_identity("cyc(x,y,z; {x,y,z}) = 0")
    assert "cyc(x,y,z; {x,y,z})" in format_node(ident.lhs)


@pytest.mark.parametrize(
    "bad,err",
    [
        ("a*b*c = 0", ParseError),  # nonassociative: must parenthesize
        ("A = 0", ParseError),  # reserved for the twist
        ("cyc = 0", ParseError),
        ("2 = 0", ParseError),  # bare rationals other than 0 are meaningless
        ("x*y", ParseError),  # missing '='
        ("x = y = z", ParseError),
        ("cyc(x,x,z; {x,x,z}) = 0", ParseError),
        ("{x,y} = 0", ParseError),
        ("x*(y+z) = x*y + x*z", MultilinearityError),
        ("x*x = 0", MultilinearityError),
        ("{x,y,z} = x*y", MultilinearityError),
    ],
)
def test_parse_rejects(bad, err):
    with pytest.raises(err):
        parse_identity(bad)


def test_zero_sides_allowed():
    ident = parse_identity("0 = x - x")
    assert ident.lhs == Sum(())
    assert check_identity(get("A1"), ident) is None


def test_parse_suite_and_duplicates():
    suite = parse_suite("one : x*y = -y*x\n# comment\ntwo : 0 = 0\n")
    assert [i.name for i in suite.identities] == ["one", "two"]
    with pytest.raises(ParseError, match="duplicate identity name"):
        parse_suite("one : 0 = 0\none : 0 = 0")


# --- evaluation ------------------------------------------------------------


def test_evaluate_matches_hand_expansion():
    a1 = get("A1")
    env = {"x": Vector((1, 2)), "y": Vector((3, 4))}
    node = parse_identity("x*y = 0").lhs
    # (e1 + 2e2)*(3e1 + 4e2) = 4(e1*e2) + 6(e2*e1) = 2 e2
    assert evaluate(node, a1, env) == Vector((0, 2))


def test_evaluate_applies_twist_exponent():
    hb2 = get_twisted("HB_A2", lam=F(1), a=F(0), b=F(3))
    env = {"x": Vector((0, 1))}
    node = parse_identity("A(x) = 0").lhs
    assert evaluate(node, hb2, env) == Vector((0, 3))
    assert evaluate(node, hb2, env, twist_exponent=2) == Vector((0, 9))


def test_evaluate_cyclic_sum():
    a1 = get("A1")
    node = parse_identity("cyc(x,y,z; {x,y,z}) = 0").lhs
    env = {"x": Vector((1, 0)), "y": Vector((0, 1)), "z": Vector((1, 0))}
    # [e1,e2,e1] + [e2,e1,e1] + [e1,e1,e2] = e1 - e1 + 0 = 0
    assert evaluate(node, a1, env).is_zero()


# --- basis checking --------------------------------------------------------


def test_counterexample_is_lexicographically_first():
    a1 = get("A1")
    ident = parse_identity("x*y = 0", name="vanish")
    ce = check_identity(a1, ident)
    assert ce is not None
    assert ce.indices == (0, 1)  # (e1,e1) passes, (e1,e2) is the first failure
    assert ce.residual == Vector((0, -1))
    assert "e1" in ce.describe(a1.basis) and "e2" in ce.describe(a1.basis)


def test_check_suite_reports_all_identities():
    report = check_suite(get("A1"), "bol")
    assert report.passed
    assert [name for name, _ in report.results] == [
        "skew_binary",
        "skew_ternary",
        "ternary_jacobi",
        "binary_derivation",
        "ternary_derivation",
    ]


def test_unknown_suite_name():
    with pytest.raises(KeyError, match="unknown suite"):
        check_suite(get("A1"), "no_such_suite")


def test_symbolic_pass_means_identically_zero():
    # A2 passes BOL for every lambda because the residuals are zero polynomials
    assert check_suite(get("A2"), "bol").passed


def test_twist_exponent_changes_the_verdict():
    flip = LinearMap.from_columns(((1, 0), (0, -1)))
    alg = get("A1").replace(twist=flip)
    involutive = parse_suite("involutive : A(x) = x")
    assert check_suite(alg, involutive, twist_exponent=2).passed
    assert not check_suite(alg, involutive).passed


def test_ternary_part_of_twisted_entry_is_triple_system_for_squared_twist():
    stripped = get_twisted("HB_A3", lam=F(1), b=F(2), sign="+").replace(
        binary=zero_tensor(2, 2)
    )
    assert check_suite(stripped, "hom_lie_triple", twist_exponent=2).passed


def test_hom_flex_polarization():
    # d(e1,e2,e2) = e1 = -d(e2,e2,e1) satisfies {x,y,z} + {z,y,x} = 0
    a1 = get("A1")
    sym = parse_suite("flex : {x,y,z} + {z,y,x} = 0")
    cells = [[[Vector.zero(2).coords] * 2 for _ in range(2)] for _ in range(2)]
    cells[0][1][1] = Vector((1, 0)).coords
    cells[1][1][0] = Vector((-1, 0)).coords
    flexy = a1.replace(ternary=tuple(tuple(tuple(r) for r in p) for p in cells))
    assert check_suite(flexy, sym).passed
    assert not check_suite(a1, "hom_flex").passed  # [e1,e2,e1] = e1 breaks it


def test_hom_alt_fails_on_catalog_ternary():
    report = check_suite(get("A1"), "hom_alt")
    failed = {name for name, ce in report.results if ce is not None}
    assert failed == {"alt_last_pair"}  # first-pair skew holds by construction


# --- randomized soundness: basis verdict vs direct evaluation ---------------


def _random_vector(rng, dim):
    return Vector(
        tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
    )


def _tamper(alg, i, j, k, delta):
    rows = [list(map(list, plane)) for plane in alg.ternary]
    cell = list(rows[i][j][k])
    cell[0] = Scalar._coerce(delta) + cell[0]
    rows[i][j][k] = tuple(cell)
    return alg.replace(ternary=tuple(tuple(tuple(c) for c in plane) for plane in rows))


def test_random_tuples_agree_with_basis_verdict_on_pass():
    rng = random.Random(20240817)
    a1 = get("A1")
    for ident in SUITES["bol"].identities:
        assert check_identity(a1, ident) is None
        for _ in range(25):
            env = {v: _random_vector(rng, 2) for v in ident.variables}
            lhs = evaluate(ident.lhs, a1, env)
            rhs = evaluate(ident.rhs, a1, env)
            assert (lhs - rhs).is_zero()


def test_random_tuples_detect_basis_failure():
    rng = random.Random(20240818)
    broken = _tamper(get("A1"), 0, 1, 0, 1)  # bump [e1,e2,e1] off its skew partner
    ident = next(i for i in SUITES["bol"].identities if i.name == "skew_ternary")
    assert check_identity(broken, ident) is not None
    hits = 0
    for _ in range(25):
        env = {v: _random_vector(rng, 2) for v in ident.variables}
        if not (evaluate(ident.lhs, broken, env) - evaluate(ident.rhs, broken, env)).is_zero():
            hits += 1
    assert hits > 0
