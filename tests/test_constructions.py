from fractions import Fraction as F

import pytest

from hombol.algebra import POWER_LIMIT, HomAlgebra, LinearMap, Vector, zero_tensor
from hombol.catalog import get
from hombol.constructions import (
    DERIVED_ORDER_LIMIT,
    _recompose,
    hom_jacobian,
    malcev_to_bol,
    nth_derived,
    self_twist,
    yau_twist,
)
from hombol.errors import ExponentLimitError, PreconditionError
from hombol.identities import check_suite
from hombol.scalars import Scalar, parse_scalar


def _skew_lie(dim, cells):
    """Binary algebra from {(i,j): coords} with i<j, skew-completed, alpha=id."""
    binary = [[[Scalar.rational(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coords in cells.items():
        binary[i][j] = [Scalar.rational(c) for c in coords]
        binary[j][i] = [Scalar.rational(-c) for c in coords]
    return HomAlgebra(
        dim=dim,
        basis=tuple(f"e{i + 1}" for i in range(dim)),
        binary=tuple(tuple(tuple(r) for r in p) for p in binary),
        ternary=zero_tensor(dim, 3),
        twist=LinearMap.identity(dim),
    )


CROSS = {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)}
NOT_MALCEV = {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 1, 0)}


# --- yau_twist ---------------------------------------------------------------


def test_yau_twist_reproduces_the_twisted_catalog_entry():
    beta = LinearMap.from_columns(
        ((Scalar.rational(1), Scalar.parameter("a")), (0, Scalar.parameter("b")))
    )
    twisted = yau_twist(get("A2"), beta)
    assert twisted == get("HB_A2")
    assert twisted.twist == beta


def test_yau_twist_requires_identity_twist():
    with pytest.raises(PreconditionError, match="identity twist"):
        yau_twist(get("HB_A2"), LinearMap.identity(2))


def test_yau_twist_rejects_non_endomorphisms():
    theta = LinearMap.from_columns(((1, 1), (0, 1)))  # e1 -> e1 + e2
    with pytest.raises(PreconditionError, match="yau_twist"):
        yau_twist(get("A1"), theta)
    forced = yau_twist(get("A1"), theta, check=False)
    assert forced.twist == theta


# --- self_twist --------------------------------------------------------------


def test_self_twist_composes_powers_of_the_morphism():
    alg = get("HB_A2", lam=F(1), a=F(0), b=F(2))
    once = self_twist(alg, alg.twist, 1)
    assert once.eval_binary(Vector.basis(0, 2), Vector.basis(1, 2)) == Vector((0, -4))
    assert once.eval_ternary(*(Vector.basis(i, 2) for i in (0, 1, 0))) == Vector((0, 16))
    assert once.twist == LinearMap.from_columns(((1, 0), (0, 4)))

    twice = self_twist(alg, alg.twist, 2)
    assert twice.eval_binary(Vector.basis(0, 2), Vector.basis(1, 2)) == Vector((0, -8))
    assert twice.eval_ternary(*(Vector.basis(i, 2) for i in (0, 1, 0))) == Vector((0, 64))
    assert twice.twist == LinearMap.from_columns(((1, 0), (0, 8)))


def test_self_twist_needs_positive_order_and_commuting_map():
    alg = get("HB_A2", lam=F(1), a=F(0), b=F(2))
    with pytest.raises(PreconditionError, match="nonnegative"):
        self_twist(alg, alg.twist, -1)
    shear = LinearMap.from_columns(((1, 1), (0, 1)))  # endomorphism, does not commute
    with pytest.raises(PreconditionError, match="commute"):
        self_twist(alg, shear, 1)


def test_self_twist_output_stays_hom_bol():
    alg = get("HB_A2")
    assert check_suite(self_twist(alg, alg.twist, 1), "hom_bol").passed


# --- nth_derived -------------------------------------------------------------


def test_derived_order_zero_is_the_algebra_itself():
    alg = get("HB_A2")
    assert nth_derived(alg, 0) == alg


def test_first_derived_tensors_match_hand_expansion():
    alg = get("HB_A2")
    d1 = nth_derived(alg, 1)
    e1, e2 = Vector.basis(0, 2), Vector.basis(1, 2)
    names = {"a", "b", "lambda"}
    assert d1.eval_binary(e1, e2) == Vector(
        (Scalar.rational(0), parse_scalar("-b^2", names))
    )
    assert d1.eval_ternary(e1, e2, e1) == Vector(
        (Scalar.rational(0), parse_scalar("lambda*b^4", names))
    )
    # twist is the square of the shear-and-scale map
    assert d1.twist.apply(e1) == Vector(
        (Scalar.rational(1), parse_scalar("a*b + a", names))
    )
    assert d1.twist.apply(e2) == Vector(
        (Scalar.rational(0), parse_scalar("b^2", names))
    )


def test_derived_recursion_one_step():
    alg = get("HB_A2")
    assert nth_derived(alg, 2) == nth_derived(nth_derived(alg, 1), 1)


def test_derived_preserves_hom_bol():
    alg = get("HB_A2")
    for n in (1, 2):
        assert check_suite(nth_derived(alg, n), "hom_bol").passed


def test_derived_binary_only_strips_the_ternary():
    alg = get("HB_A2")
    d1 = nth_derived(alg.replace(ternary=None), 1)
    assert d1.ternary == zero_tensor(2, 3)
    e1, e2 = Vector.basis(0, 2), Vector.basis(1, 2)
    assert d1.eval_binary(e1, e2) == nth_derived(alg, 1).eval_binary(e1, e2)
    assert d1.twist == nth_derived(alg, 1).twist


def test_derived_order_limit():
    alg = get("A1")
    nth_derived(alg, DERIVED_ORDER_LIMIT)  # at the limit: fine
    with pytest.raises(ExponentLimitError):
        nth_derived(alg, DERIVED_ORDER_LIMIT + 1)
    with pytest.raises(PreconditionError, match="nonnegative"):
        nth_derived(alg, -1)


def test_derived_powers_stay_under_the_map_power_limit(monkeypatch):
    assert 2 ** (DERIVED_ORDER_LIMIT + 1) - 2 <= POWER_LIMIT
    alg = get("HB_A2", lam=F(1), a=F(0), b=F(-1))
    top = nth_derived(alg, DERIVED_ORDER_LIMIT)  # twist powers up to 2^17 - 2
    assert top.twist.is_identity() and top.ternary == alg.ternary
    # each construction makes one map power P = base^p and squares it for the
    # ternary product, so an exponent 2p over the limit is refused up front
    exponents = []
    power = LinearMap.power
    monkeypatch.setattr(LinearMap, "power", lambda m, k: exponents.append(k) or power(m, k))
    with pytest.raises(ExponentLimitError, match="exponent limit"):
        self_twist(alg, alg.twist, POWER_LIMIT // 2 + 1)  # ternary power POWER_LIMIT + 2
    assert exponents == []
    hb2 = get("HB_A2")
    for build, p in (
        (lambda: nth_derived(hb2, 3), 7),
        (lambda: self_twist(hb2, hb2.twist, 2), 2),
        (lambda: yau_twist(get("A2"), hb2.twist), 1),
        (lambda: malcev_to_bol(_skew_lie(3, CROSS)), 1),
    ):
        exponents.clear()
        build()
        assert exponents == [p]


# --- the twisting sequence: self_twist along the algebra's own twist ----------


def test_sequence_member_zero_keeps_tensors_and_installs_the_map():
    beta = LinearMap.from_columns(
        ((Scalar.rational(1), Scalar.parameter("a")), (0, Scalar.parameter("b")))
    )
    member = self_twist(get("A2"), beta, 0)
    assert member.binary == get("A2").binary
    assert member.ternary == get("A2").ternary
    assert member.twist == get("A2").twist
    # along beta, the first member of an untwisted algebra's sequence is its Yau twist
    member = self_twist(get("A2"), beta, 1)
    assert member.twist == beta
    assert member == yau_twist(get("A2"), beta)


def test_sequence_member_scales_like_hand_expansion():
    alg = get("HB_A2")
    member = self_twist(alg, alg.twist, 2)
    e1, e2 = Vector.basis(0, 2), Vector.basis(1, 2)
    names = {"a", "b", "lambda"}
    assert member.eval_binary(e1, e2) == Vector(
        (Scalar.rational(0), parse_scalar("-b^3", names))
    )
    assert member.eval_ternary(e1, e2, e1) == Vector(
        (Scalar.rational(0), parse_scalar("lambda*b^6", names))
    )
    assert member.twist == alg.twist.power(3)
    assert check_suite(member, "hom_bol").passed


def test_sequence_member_rejects_non_commuting_maps():
    alg = get("HB_A2", lam=F(1), a=F(0), b=F(2))
    shear = LinearMap.from_columns(((1, 1), (0, 1)))
    with pytest.raises(PreconditionError, match="commute"):
        self_twist(alg, shear, 1)


def test_self_twist_along_a_foreign_automorphism_stays_hom_bol():
    """The cyclic permutation P is an automorphism of the cross product.
    Twisting so(3)'s Bol algebra along it keeps the hom_bol suite; the
    formula with the twist P^(n+1) instead of P^n . alpha does not."""
    bol = malcev_to_bol(_skew_lie(3, CROSS))
    P = LinearMap.from_columns(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    for n in range(3):
        assert check_suite(self_twist(bol, P, n), "hom_bol").passed
        unsound = _recompose(bol, P, n).replace(twist=P.power(n + 1))
        failing = {name for name, r in check_suite(unsound, "hom_bol").results if r is not None}
        assert "twisted_binary_derivation" in failing


# --- malcev_to_bol -----------------------------------------------------------


def test_malcev_to_bol_on_the_cross_product():
    lie = _skew_lie(3, CROSS)
    bol = malcev_to_bol(lie)
    e = [Vector.basis(i, 3) for i in range(3)]
    # for a Lie algebra the associated product collapses to (x*y)*z
    assert bol.eval_ternary(e[0], e[1], e[0]) == Vector((0, 1, 0))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                lhs = bol.eval_ternary(e[i], e[j], e[k])
                rhs = lie.eval_binary(lie.eval_binary(e[i], e[j]), e[k])
                assert lhs == rhs
    assert check_suite(bol, "bol").passed


def test_malcev_to_bol_with_a_diagonal_morphism():
    lie = _skew_lie(3, CROSS)
    beta = LinearMap.from_columns(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    twisted = malcev_to_bol(lie, beta)
    assert twisted.twist == beta
    assert check_suite(twisted, "hom_bol").passed


def test_malcev_to_bol_preconditions():
    not_malcev = _skew_lie(3, NOT_MALCEV)
    with pytest.raises(PreconditionError, match="not Malcev"):
        malcev_to_bol(not_malcev)
    with pytest.raises(PreconditionError, match="identity twist"):
        malcev_to_bol(get("HB_A2"))
    with pytest.raises(PreconditionError, match="ternary tensor"):
        malcev_to_bol(get("A1"))


def test_malcev_to_bol_refuses_a_non_endomorphism():
    scale = LinearMap.from_columns(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(PreconditionError) as info:
        malcev_to_bol(_skew_lie(3, CROSS), scale)
    assert str(info.value) == (
        "malcev_to_bol: map is not an endomorphism; binary product at (e1, e2) differs by (0, 0, -1)"
    )


# --- hom_jacobian ------------------------------------------------------------


def test_hom_jacobian_vanishes_for_lie_brackets():
    lie = _skew_lie(3, CROSS)
    table = hom_jacobian(lie)
    assert all(
        table[i][j][k].is_zero() for i in range(3) for j in range(3) for k in range(3)
    )


def test_hom_jacobian_detects_a_broken_jacobi_identity():
    table = hom_jacobian(_skew_lie(3, NOT_MALCEV))
    assert table[0][1][2] == Vector((0, 0, -2))
