from fractions import Fraction as F

import pytest

from hombol.algebra import (
    POWER_LIMIT,
    HomAlgebra,
    LinearMap,
    Vector,
    first_weak_morphism_failure,
    is_morphism,
    is_weak_morphism,
    morphism_residuals,
    zero_tensor,
)
from hombol.catalog import get
from hombol.errors import DimensionMismatch, ExponentLimitError
from hombol.scalars import ONE, Scalar, ZERO


def test_vector_basics():
    v = Vector((1, F(1, 2)))
    w = Vector.basis(0, 2)
    assert (v + w).coords == (Scalar.rational(2), Scalar.rational(1, 2))
    assert (v - v).is_zero()
    assert (-w).coords == (-ONE, ZERO)
    assert v.scale(2) == Vector((2, 1))
    assert Vector.zero(3).dim == 3
    assert str(Vector((-1, 0))) == "(-1, 0)"


@pytest.mark.parametrize("i", [5, 3, -1])
def test_vector_basis_refuses_an_index_outside_the_dimension(i):
    with pytest.raises(IndexError, match=f"basis index {i} out of range for dimension 3"):
        Vector.basis(i, 3)


def test_a_vector_is_true_when_some_coordinate_is_nonzero():
    # as for a Scalar, where ZERO is false
    assert not Vector.zero(3) and not ZERO
    assert Vector.basis(0, 3) and Vector((0, 0, F(1, 2)))
    assert not Vector((0, 0)) and not (Vector((1, 2)) - Vector((1, 2)))
    # residuals of the identity map of A1 are all zero, so none is true
    a1 = get("A1")
    residuals = [r for _, _, r in morphism_residuals(LinearMap.identity(2), a1, a1)]
    assert residuals and not any(residuals)
    assert any(r for _, _, r in morphism_residuals(LinearMap(((2, 0), (0, 1))), a1, a1))


def test_vector_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Vector((1, 2)) + Vector((1, 2, 3))


@pytest.mark.parametrize(
    "cols",
    [((1, 2, 3), (4, 5, 6)), ((1, 2), (3,)), ((1, 2), (3, 4, 5)), ((), ()), ((1,), (2,))],
)
def test_from_columns_refuses_a_matrix_that_is_not_square(cols):
    # ((1, 2, 3), (4, 5, 6)) once gave a 2x2 map and a short column an IndexError
    with pytest.raises(DimensionMismatch, match="^linear map matrix must be square$"):
        LinearMap.from_columns(cols)


def test_linear_map_columns_and_apply():
    # column j is the image of e_j
    m = LinearMap.from_columns(((1, 2), (0, 3)))
    assert m.column(0) == Vector((1, 2))
    assert m.apply(Vector.basis(1, 2)) == Vector((0, 3))
    # (e1 + e2) -> (1, 5)
    assert m.apply(Vector((1, 1))) == Vector((1, 5))


def test_linear_map_compose_order():
    # compose(other) = self after other
    shift = LinearMap.from_columns(((0, 1), (0, 0)))  # e1 -> e2, e2 -> 0
    scale = LinearMap.from_columns(((2, 0), (0, 3)))
    assert scale.compose(shift).apply(Vector.basis(0, 2)) == Vector((0, 3))
    assert shift.compose(scale).apply(Vector.basis(0, 2)) == Vector((0, 2))


def test_linear_map_power():
    b = Scalar.parameter("b")
    m = LinearMap.from_columns(((ONE, ZERO), (ZERO, b)))
    assert m.power(0).is_identity()
    assert m.power(5).column(1) == Vector((ZERO, b ** 5))
    # shear: beta(e1) = e1 + a e2, beta(e2) = b e2; beta^2(e1) = e1 + a(1+b) e2
    a = Scalar.parameter("a")
    shear = LinearMap.from_columns(((ONE, a), (ZERO, b)))
    assert shear.power(2).column(0) == Vector((ONE, a * (ONE + b)))
    with pytest.raises(ValueError):
        m.power(-1)


def test_linear_map_power_limit():
    flip = LinearMap.from_columns(((ONE, ZERO), (ZERO, -ONE)))
    assert flip.power(POWER_LIMIT).is_identity()
    with pytest.raises(ExponentLimitError, match=f"exponent limit {POWER_LIMIT}"):
        flip.power(POWER_LIMIT + 1)
    with pytest.raises(ExponentLimitError):
        LinearMap.identity(2).power(10**4000)


def test_linear_map_commutes_with():
    a = Scalar.parameter("a")
    shear = LinearMap.from_columns(((ONE, a), (ZERO, ONE)))
    diag = LinearMap.from_columns(((2, 0), (0, 3)))
    cube = shear.power(3)
    assert shear.compose(cube) == cube.compose(shear)
    assert shear.compose(diag) != diag.compose(shear)
    assert LinearMap.identity(2).compose(diag) == diag.compose(LinearMap.identity(2))


def test_linear_map_variables():
    m = LinearMap.from_columns(((ONE, Scalar.parameter("a")), (ZERO, Scalar.parameter("b"))))
    assert m.variables() == {"a", "b"}


# evaluation oracles on A1: e1*e2 = -e2, [e1,e2,e1] = e1, [e1,e2,e2] = -e2


def test_eval_binary_oracle():
    a1 = get("A1")
    u = Vector((1, 2))
    v = Vector((3, 4))
    # u*v = (1)(4) e1*e2 + (2)(3) e2*e1 = 4(-e2) + 6(e2) = 2 e2
    assert a1.eval_binary(u, v) == Vector((0, 2))


def test_eval_ternary_oracle():
    a1 = get("A1")
    u = Vector((1, 1))
    v = Vector((2, 0))
    w = Vector((0, 3))
    # only [e2,e1,e2] survives: coeff 1*2*3 = 6, value +e2 -> (0, 6)
    assert a1.eval_ternary(u, v, w) == Vector((0, 6))
    assert Vector(a1.ternary[0][1][0]) == Vector((1, 0))
    assert Vector(a1.binary[1][0]) == Vector((0, 1))


def test_eval_dimension_guard():
    a1 = get("A1")
    with pytest.raises(DimensionMismatch):
        a1.eval_binary(Vector((1, 2, 3)), Vector((1, 2)))


def test_replace_and_equality_ignores_params():
    a2 = get("A2")
    alias = a2.replace(params=a2.params | {"unused"})
    assert alias == a2
    other = a2.replace(binary=zero_tensor(2, 2))
    assert other != a2


def test_all_variables():
    hb2 = get("HB_A2")
    assert hb2.all_variables() == {"lambda", "a", "b"}


def test_zero_tensors():
    assert all(c.is_zero() for row in zero_tensor(2, 2) for cell in row for c in cell)
    t = zero_tensor(2, 3)
    assert all(
        c.is_zero() for plane in t for row in plane for cell in row for c in cell
    )


# morphism predicates


def test_weak_morphism_failure_is_first_lexicographic():
    a1 = get("A1")
    theta = LinearMap.from_columns(((1, 1), (0, 1)))  # e1 -> e1 + e2, e2 -> e2
    failure = first_weak_morphism_failure(theta, a1, a1)
    assert failure is not None
    kind, indices, residual = failure
    # binary rows all hold for this map; the first break is ternary (e1,e2,e1):
    # theta([e1,e2,e1]) = e1 + e2 while [theta e1, theta e2, theta e1] = e1 - e2
    assert kind == "ternary"
    assert indices == (0, 1, 0)
    assert residual == Vector((0, 2))
    assert not is_weak_morphism(theta, a1, a1)


def test_identity_and_zero_are_weak_morphisms():
    a1 = get("A1")
    assert is_weak_morphism(LinearMap.identity(2), a1, a1)
    zero_map = LinearMap.from_columns(((0, 0), (0, 0)))
    assert is_weak_morphism(zero_map, a1, a1)


def test_is_morphism_needs_twist_compatibility():
    hb2 = get("HB_A2", lam=F(1), a=F(0), b=F(2))
    # the twist commutes with itself, so it is a full morphism of its algebra
    assert is_morphism(hb2.twist, hb2, hb2)
    swap = LinearMap.from_columns(((0, 1), (1, 0)))
    assert not is_morphism(swap, hb2, hb2)


def test_is_morphism_false_for_a_weak_morphism_off_the_twist():
    hb2 = get("HB_A2", lam=F(1), a=F(0), b=F(2))
    shear = LinearMap.from_columns(((1, 1), (0, 1)))  # e1 -> e1 + e2, e2 -> e2
    assert is_weak_morphism(shear, hb2, hb2)
    assert not is_morphism(shear, hb2, hb2)
    failing = [(kind, idx) for kind, idx, r in morphism_residuals(shear, hb2, hb2) if not r.is_zero()]
    assert failing == [("twist", (1,))]


def test_is_multiplicative_with_identity_twist():
    assert get("A1").is_multiplicative()


def test_weak_checks_never_compose_the_twist_rows(monkeypatch):
    # a passing weak check stops after the product rows, so it never builds
    # theta.alpha or alpha.theta for the twist rows that follow them
    a1, hb2 = get("A1"), get("HB_A2", lam=F(1), a=F(0), b=F(2))
    calls = []
    compose = LinearMap.compose
    monkeypatch.setattr(LinearMap, "compose", lambda self, other: calls.append(1) or compose(self, other))
    assert a1.is_multiplicative()
    assert is_weak_morphism(hb2.twist, hb2, hb2)
    assert first_weak_morphism_failure(LinearMap.identity(2), a1, a1) is None
    assert calls == []
    assert is_morphism(hb2.twist, hb2, hb2)  # the full check does read them
    assert len(calls) == 2


def test_is_multiplicative_shear_scale_on_raw_tensors():
    # raw A2 tensors with the shear-and-scale twist attached, numeric b not in
    # {0, 1}: both sides of the ternary row expand to lambda*b*e2, because the
    # e2 components of slots one and three only ever hit vanishing cells.  The
    # map is a self-morphism, so multiplicativity holds for any such mix.
    a2 = get("A2", lam=F(3))
    beta = LinearMap.from_columns(((1, 5), (0, 2)))
    assert a2.replace(twist=beta).is_multiplicative()


def test_is_multiplicative_false_for_genuine_non_morphism():
    a2 = get("A2", lam=F(3))
    bad = LinearMap.from_columns(((1, 0), (1, 1)))  # e2 -> e1 + e2
    assert not a2.replace(twist=bad).is_multiplicative()


def test_construction_validation():
    with pytest.raises(ValueError, match="basis labels"):
        HomAlgebra(
            dim=2,
            basis=("e1", "e2", "e3"),
            params=frozenset(),
            binary=zero_tensor(2, 2),
            ternary=zero_tensor(2, 3),
            twist=LinearMap.identity(2),
        )
    with pytest.raises(DimensionMismatch):
        HomAlgebra(
            dim=2,
            basis=("e1", "e2"),
            params=frozenset(),
            binary=zero_tensor(3, 2),
            ternary=zero_tensor(2, 3),
            twist=LinearMap.identity(2),
        )
