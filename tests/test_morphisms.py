from fractions import Fraction as F

import pytest

from hombol import morphisms
from hombol.algebra import LinearMap, Vector
from hombol.catalog import get
from hombol.errors import ParseError, PreconditionError
from hombol.morphisms import (
    DEFAULT_GRID,
    FAMILY_CANDIDATES,
    classify_2dim,
    generate_constraints,
    grid_search,
    unknown_names,
    verify_candidate,
)
from hombol.serialization import parse_algebra

SO3_DOC = (
    "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\n"
    "binary e1 e2 = e3\nbinary e2 e3 = e1\nbinary e3 e1 = e2\n"
)

A1_EQUATIONS = [
    "-a1*a2*b1 + a1^2*b2 - a1",
    "-a1*a2*b2 + a2^2*b1 - a2",
    "-a1*b1*b2 + a2*b1^2 - b1",
    "-a1*b2 + a2*b1 + b2",
    "-a1*b2^2 + a2*b1*b2 + b2",
    "-b1",
    "a1*a2*b1 - a1^2*b2 + a1",
    "a1*a2*b2 - a2^2*b1 + a2",
    "a1*b1*b2 - a2*b1^2 + b1",
    "a1*b2 - a2*b1 - b2",
    "a1*b2^2 - a2*b1*b2 - b2",
    "b1",
]


def test_unknown_names_by_dimension():
    assert unknown_names(2) == ("a1", "a2", "b1", "b2")
    assert unknown_names(3)[:4] == ("t1_1", "t1_2", "t1_3", "t2_1")


def test_constraints_for_a1_match_hand_derivation():
    system = generate_constraints(get("A1"))
    assert system.unknowns == ("a1", "a2", "b1", "b2")
    assert system.params == frozenset()
    assert sorted(str(eq) for eq in system.equations) == A1_EQUATIONS


def test_constraints_carry_algebra_parameters():
    system = generate_constraints(get("A2"))
    assert system.params == frozenset({"lambda"})
    assert len(system.equations) == 10


def test_parameter_name_clash_is_rejected():
    doc = "dim 2\nparams b1\nbasis e1 e2\nbinary e1 e2 = b1*e2\n"
    with pytest.raises(ParseError, match="^unknowns and parameters overlap$"):
        generate_constraints(parse_algebra(doc))


@pytest.mark.parametrize("name", ["params", "unknowns"])
@pytest.mark.parametrize("rhs", ["e2", "NAME*e2"], ids=["declared", "used"])
def test_a_parameter_named_like_a_constraint_keyword_is_refused_before_any_equation(name, rhs, monkeypatch):
    """The rule on the system's unknowns and parameters is stated once, in
    ``errors.refuse_bad_params``, on every parameter of the algebra, before
    the morphism residuals are built."""
    doc = f"dim 2\nparams {name}\nbasis e1 e2\nbinary e1 e2 = {rhs.replace('NAME', name)}\n"
    alg = parse_algebra(doc)
    monkeypatch.setattr(morphisms, "morphism_residuals", lambda *args: pytest.fail("an equation was built"))
    with pytest.raises(ParseError, match=f"^bad parameter name '{name}'$"):
        generate_constraints(alg)


def test_twisted_algebra_adds_intertwining_equations():
    hb2 = get("HB_A2", lam=F(1), a=F(0), b=F(2))
    system = generate_constraints(hb2)
    assert len(system.equations) == 12  # morphism equations plus intertwining
    assert verify_candidate(system, LinearMap.identity(2)) is None
    assert verify_candidate(system, hb2.twist) is None


# --- verify_candidate --------------------------------------------------------


def test_symbolic_families_on_a2():
    system = generate_constraints(get("A2"))
    for family in ("annihilate_e2", "shear_and_scale", "scale_e2"):
        assert verify_candidate(system, FAMILY_CANDIDATES[family]) is None


def test_scale_family_fails_on_a3():
    system = generate_constraints(get("A3", sign="+"))
    failure = verify_candidate(system, FAMILY_CANDIDATES["scale_e2"])
    assert failure is not None
    assert str(failure.residual) == "-b2^2 + 1"  # forces b2^2 = 1, not a free b2


def test_linear_map_candidates():
    system = generate_constraints(get("A1"))
    assert verify_candidate(system, LinearMap.identity(2)) is None
    swap = LinearMap.from_columns(((0, 1), (1, 0)))
    assert verify_candidate(system, swap) is not None


def test_unknown_name_mismatch():
    system = generate_constraints(get("A1"))
    with pytest.raises(ValueError, match="unknown-name mismatch"):
        verify_candidate(system, {"a1": 1})
    with pytest.raises(ValueError, match="dimension"):
        verify_candidate(system, LinearMap.identity(3))


# --- grid_search -------------------------------------------------------------


def test_grid_on_a1_finds_exactly_zero_and_identity():
    system = generate_constraints(get("A1"))
    solutions = grid_search(system, DEFAULT_GRID)
    assert len(solutions) == 2
    assert solutions[0].is_zero()
    assert solutions[1] == LinearMap.identity(2)


def test_grid_on_a3_adds_the_sign_flip():
    system = generate_constraints(get("A3", sign="+"))
    solutions = grid_search(system, DEFAULT_GRID, {"lambda": F(1)})
    cols = [tuple(m.column(j).coords for j in range(2)) for m in solutions]
    assert [tuple(str(c) for col in m for c in col) for m in cols] == [
        ("0", "0", "0", "0"),
        ("1", "0", "0", "-1"),
        ("1", "0", "0", "1"),
    ]


def test_grid_requires_bound_parameters():
    system = generate_constraints(get("A2"))
    with pytest.raises(ValueError, match="unbound parameter 'lambda'"):
        grid_search(system, DEFAULT_GRID)


@pytest.mark.parametrize(
    "algebra, grid, count",
    [(parse_algebra(SO3_DOC), (-1, 0, 1), 25), (get("A2", lam=1), DEFAULT_GRID, 91)],
    ids=["so3", "A2-lambda-1"],
)
def test_every_grid_solution_verifies_as_a_map(algebra, grid, count):
    # grid_search lays its solutions out as maps and verify_candidate reads a
    # map back into bindings; both must use the one layout of the unknowns
    system = generate_constraints(algebra)
    solutions = grid_search(system, grid)
    assert len(solutions) == count
    assert all(verify_candidate(system, m) is None for m in solutions)


def test_a_transposed_layout_would_fail_on_a2():
    system = generate_constraints(get("A2", lam=1))
    transposes = [LinearMap(tuple(zip(*m.rows))) for m in grid_search(system, DEFAULT_GRID)]
    assert any(verify_candidate(system, t) is not None for t in transposes)


# --- classify_2dim -----------------------------------------------------------


def test_classification_of_a1():
    report = classify_2dim(get("A1"))
    text = report.describe()
    assert text.splitlines()[0] == "no parametric family; identity map only (plus the zero map)"
    assert "family identity: morphism for all parameter values" in text
    assert "grid check: 2 solution(s), zero map included" in text


def test_classification_of_a2_skips_grid_when_symbolic():
    report = classify_2dim(get("A2"))
    text = report.describe()
    assert text.splitlines()[0] == (
        "parametric self-morphism families: annihilate_e2, scale_e2, shear_and_scale"
    )
    assert "grid check skipped: algebra parameters left symbolic: lambda" in text


def test_classification_of_a3_with_bound_parameter():
    report = classify_2dim(get("A3", sign="+"), parameter_bindings={"lambda": F(1)})
    text = report.describe()
    assert "family scale_e2: fails, residual -b2^2 + 1" in text
    assert "grid check: 3 solution(s), zero map included" in text


def test_classify_rejects_other_dimensions():
    doc = "dim 3\nbasis e1 e2 e3\nbinary e1 e2 = e3\n"
    with pytest.raises(PreconditionError, match="dimension 2"):
        classify_2dim(parse_algebra(doc))


def test_identity_solves_a_three_dimensional_system():
    system = generate_constraints(parse_algebra(SO3_DOC))
    assert len(system.unknowns) == 9
    assert verify_candidate(system, LinearMap.identity(3)) is None
    rotate = LinearMap.from_columns(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert verify_candidate(system, rotate) is None  # cyclic symmetry of the bracket
