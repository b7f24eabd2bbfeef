import math
from fractions import Fraction as F

import pytest

from hombol.algebra import HomAlgebra, LinearMap, Vector
from hombol.catalog import get, names
from hombol.constructions import malcev_to_bol, nth_derived, self_twist
from hombol.errors import ParseError
from hombol.morphisms import ConstraintSystem, generate_constraints
from hombol.scalars import Scalar, parse_scalar
from hombol.serialization import (
    DIM_LIMIT,
    emit_algebra,
    emit_constraints,
    emit_map,
    format_vector,
    parse_algebra,
    parse_constraints,
    parse_map,
)

HB_A2_TEXT = (
    "dim 2\n"
    "params a b lambda\n"
    "basis e1 e2\n"
    "binary e1 e2 = -b*e2\n"
    "binary e2 e1 = b*e2\n"
    "ternary e1 e2 e1 = b^2*lambda*e2\n"
    "ternary e2 e1 e1 = -b^2*lambda*e2\n"
    "alpha e1 = e1 + a*e2\n"
    "alpha e2 = b*e2\n"
)


# --- vectors -----------------------------------------------------------------


def test_format_vector():
    labels = ("e1", "e2")
    assert format_vector(Vector((0, 0)), labels) == "0"
    assert format_vector(Vector((1, -1)), labels) == "e1 - e2"
    assert format_vector(Vector((F(5, 2), 0)), labels) == "5/2*e1"
    assert (
        format_vector(Vector((Scalar.rational(-1, 3), Scalar.parameter("b"))), labels)
        == "-1/3*e1 + b*e2"
    )


# --- algebra documents -------------------------------------------------------


def test_emit_twisted_catalog_entry_exact_text():
    assert emit_algebra(get("HB_A2")) == HB_A2_TEXT


def test_round_trip_all_catalog_entries():
    for name in names():
        alg = get(name, sign="+") if name in ("A3", "HB_A3") else get(name)
        text = emit_algebra(alg)
        back = parse_algebra(text)
        assert back == alg
        assert back.twist == alg.twist
        assert emit_algebra(back) == text  # byte stable


def test_round_trip_constructed_algebras():
    lie_doc = (
        "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\n"
        "binary e1 e2 = e3\nbinary e2 e3 = e1\nbinary e3 e1 = e2\n"
    )
    samples = [
        nth_derived(get("HB_A2"), 2),
        self_twist(get("HB_A2"), get("HB_A2").twist, 1),
        malcev_to_bol(parse_algebra(lie_doc)),
    ]
    for alg in samples:
        text = emit_algebra(alg)
        assert parse_algebra(text) == alg
        assert emit_algebra(parse_algebra(text)) == text


def test_skew_completion_fills_unstated_cells():
    doc = "dim 2\nbasis e1 e2\ncomplete skew-binary\nbinary e1 e2 = -e2\n"
    alg = parse_algebra(doc)
    e1, e2 = Vector.basis(0, 2), Vector.basis(1, 2)
    assert alg.eval_binary(e2, e1) == Vector((0, 1))
    assert alg.eval_binary(e1, e1).is_zero()


def test_comments_and_blank_lines_ignored():
    doc = "# header comment\n\ndim 2\nbasis e1 e2\n\n# product\nbinary e1 e2 = e1\n"
    assert parse_algebra(doc).eval_binary(
        Vector.basis(0, 2), Vector.basis(1, 2)
    ) == Vector((1, 0))


def test_absent_alpha_stanza_means_identity():
    alg = parse_algebra("dim 2\nbasis e1 e2\nbinary e1 e2 = e1\n")
    assert alg.twist.is_identity()


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            "dim 2\nbasis e1 e2\nbinary e1 e2 = e1\nbinary e1 e2 = e2\n",
            "duplicate assignment for binary e1 e2",
        ),
        (
            "dim 2\nbasis e1 e2\ncomplete skew-binary\nbinary e1 e2 = e1\nbinary e2 e1 = e1\n",
            "breaks skew symmetry",
        ),
        (
            "dim 2\nbasis e1 e2\ncomplete skew-binary\nbinary e1 e1 = e2\n",
            "must vanish under skew completion",
        ),
        ("dim 2\nbasis e1 e2\nbinary e1 e2 = c*e1\n", "undeclared symbol 'c'"),
        ("dim 2\nbasis e1 e2\nbinary e1 e9 = e1\n", "undeclared symbol 'e9'"),
        (
            "dim 2\nbasis e1 e2\nbinary e1 e2 = e1\nalpha e1 = e1\n",
            "alpha image missing for 'e2'",
        ),
        ("basis e1 e2\nbinary e1 e2 = e1\n", "dim must come before basis"),
        ("dim two\nbasis e1 e2\n", "dim takes one positive integer"),
        ("dim 2\nbinary e1 e2 = e1\n", "basis must be declared before assignments"),
        (
            "dim 2\nparams a\nbasis e1 e2\nbinary e1 e2 = e1*e2\n",
            "linear combination of basis vectors",
        ),
        (
            "dim 2\nparams a b\nbasis e1 e2\nbinary e1 e2 = a*b\n",
            "linear combination of basis vectors",
        ),
        ("dim 2\nbasis e1 e2\nfrobnicate e1 = e1\n", "unknown keyword"),
    ],
)
def test_algebra_document_errors(doc, message):
    with pytest.raises(ParseError, match=message):
        parse_algebra(doc)


# --- map documents -----------------------------------------------------------


def test_map_round_trip():
    twist = get("HB_A2").twist
    text = emit_map(twist, ("e1", "e2"))
    assert text == (
        "dim 2\nparams a b\nbasis e1 e2\nalpha e1 = e1 + a*e2\nalpha e2 = b*e2\n"
    )
    back, basis, params = parse_map(text)
    assert back == twist
    assert basis == ("e1", "e2")
    assert params == frozenset({"a", "b"})
    assert emit_map(back, basis) == text


def test_emit_map_refuses_params_that_repeat_a_basis_label():
    # parse_map refuses such a document, so emit_map must not write it
    with pytest.raises(ParseError, match="basis labels and parameters overlap"):
        emit_map(LinearMap.identity(2), ("e1", "e2"), params={"e1"})
    # a variable of the map's entries is a parameter of its document too
    with pytest.raises(ParseError, match="basis labels and parameters overlap"):
        emit_map(LinearMap(((Scalar.parameter("e2"), 0), (0, 1))), ("e1", "e2"))


def test_emit_algebra_refuses_declared_params_that_repeat_a_basis_label():
    # parse_algebra refuses such a document, so emit_algebra must not write it
    with pytest.raises(ParseError, match="basis labels and parameters overlap"):
        emit_algebra(HomAlgebra(2, basis=("a", "e2"), params={"a"}))


def test_emit_algebra_refuses_a_twist_entry_that_names_a_basis_label():
    # a variable of the twist's entries is a parameter of the document too
    twist = LinearMap(((Scalar.parameter("e1"), 0), (0, 1)))
    with pytest.raises(ParseError, match="basis labels and parameters overlap"):
        emit_algebra(HomAlgebra(2, twist=twist))


def test_emitters_refuse_a_basis_label_that_is_not_an_identifier():
    # such a document read back as 'basis e 1 e2', three labels for dim 2
    with pytest.raises(ParseError, match="^bad basis label 'e 1'$"):
        emit_algebra(HomAlgebra(2, basis=("e 1", "e2")))
    with pytest.raises(ParseError, match="^bad basis label '1e'$"):
        emit_map(LinearMap.identity(2), ("1e", "e2"))
    with pytest.raises(ParseError, match=r"^bad basis label '1e' \(line 2\)$"):
        parse_algebra("dim 2\nbasis 1e e2\n")


def test_emitters_refuse_a_parameter_that_is_not_an_identifier():
    with pytest.raises(ParseError, match="^bad parameter name '1x'$"):
        emit_algebra(HomAlgebra(2, params={"1x"}))
    with pytest.raises(ParseError, match="^bad parameter name '1x'$"):
        emit_map(LinearMap.identity(2), ("e1", "e2"), params={"1x"})
    # ConstraintSystem holds the rule itself, so no such system reaches its emitter
    with pytest.raises(ParseError, match="^bad parameter name '1x'$"):
        ConstraintSystem(dim=1, unknowns=("t",), params=frozenset({"1x"}), equations=())
    with pytest.raises(ParseError, match=r"^bad parameter name '1x' \(line 2\)$"):
        parse_algebra("dim 2\nparams 1x\nbasis e1 e2\n")


def test_emitters_refuse_a_dim_over_the_document_limit():
    with pytest.raises(ParseError, match=f"^dim may not exceed {DIM_LIMIT}$"):
        emit_algebra(HomAlgebra(DIM_LIMIT + 8))
    with pytest.raises(ParseError, match=f"^dim may not exceed {DIM_LIMIT}$"):
        emit_map(LinearMap.identity(DIM_LIMIT + 1), tuple(f"e{i}" for i in range(DIM_LIMIT + 1)))
    with pytest.raises(ParseError, match=f"^dim may not exceed {DIM_LIMIT} \\(line 1, column 5\\)$"):
        parse_algebra(f"dim {DIM_LIMIT + 8}\n")
    # the largest dim a document may declare still round-trips
    largest = HomAlgebra(DIM_LIMIT)
    assert parse_algebra(emit_algebra(largest)) == largest


def test_emit_map_refuses_a_map_of_dim_0():
    # parse_map refuses 'dim 0', so emit_map must not write it
    with pytest.raises(ParseError, match="^dim takes one positive integer$"):
        emit_map(LinearMap(()), ())
    with pytest.raises(ParseError, match=r"^dim takes one positive integer \(line 1\)$"):
        parse_map("dim 0\n")


def test_emit_map_refuses_a_basis_that_is_not_dim_distinct_labels():
    # parse_map refuses 'basis e1 e1' and three labels for dim 2; one label
    # for dim 2 raised a bare IndexError
    for basis in (("e1", "e1"), ("e1", "e2", "e3"), ("e1",)):
        with pytest.raises(ParseError, match="^basis needs 2 distinct labels$"):
            emit_map(LinearMap.identity(2), basis)
    with pytest.raises(ParseError, match=r"^basis needs 2 distinct labels \(line 2\)$"):
        parse_map("dim 2\nbasis e1 e1\nalpha e1 = e1\n")


@pytest.mark.parametrize(
    "unknowns, message",
    [
        ((), "unknowns takes distinct names"),
        (("t", "t", "u", "v"), "unknowns takes distinct names"),
        (("1x",), "bad unknown name '1x'"),
    ],
)
def test_emit_constraints_refuses_unknowns_that_parse_constraints_refuses(unknowns, message):
    # such systems were written as a document with no unknowns line, or one
    # that parse_constraints refuses with these messages; ConstraintSystem
    # refuses them where they are made
    with pytest.raises(ParseError, match=f"^{message}$"):
        ConstraintSystem(dim=math.isqrt(len(unknowns)), unknowns=unknowns, params=frozenset(), equations=())
    with pytest.raises(ParseError, match=f"^{message}"):
        parse_constraints(f"unknowns {' '.join(unknowns)}\n")


@pytest.mark.parametrize(
    "dim, unknowns", [(1, ("a", "b", "c", "d")), (1, ("a", "b", "c")), (2, ("a", "b", "c")), (0, ("a",))]
)
def test_a_constraint_system_takes_dim_squared_unknowns(dim, unknowns):
    # dim 1 with four unknowns was emitted as 'unknowns a b c d', which
    # parse_constraints reads back with dim 2; a document states no dim, and
    # its parser refuses a number of unknowns that is not a square
    with pytest.raises(ValueError, match=f"^dim {dim} takes {dim * dim} unknowns, not {len(unknowns)}$"):
        ConstraintSystem(dim=dim, unknowns=unknowns, params=frozenset(), equations=())
    if math.isqrt(len(unknowns)) ** 2 != len(unknowns):
        with pytest.raises(ParseError, match="^the number of unknowns must be a perfect square$"):
            parse_constraints(f"unknowns {' '.join(unknowns)}\n")


def test_map_document_rejects_products():
    doc = "dim 2\nbasis e1 e2\nbinary e1 e2 = e1\nalpha e1 = e1\nalpha e2 = e2\n"
    with pytest.raises(ParseError, match="only header and alpha lines"):
        parse_map(doc)


def test_map_document_requires_every_column():
    with pytest.raises(ParseError, match="alpha image missing for 'e2'"):
        parse_map("dim 2\nbasis e1 e2\nalpha e1 = e1\n")


# --- constraint documents ----------------------------------------------------


def test_constraints_round_trip():
    system = generate_constraints(get("A2"))
    text = emit_constraints(system)
    assert text.startswith("unknowns a1 a2 b1 b2\nparams lambda\n")
    back = parse_constraints(text)
    assert back == system
    assert emit_constraints(back) == text


def test_constraint_system_refuses_a_parameter_that_is_an_unknown():
    # the message of parse_constraints; such a system gave 0 grid maps at
    # a1 = 1 and emitted a document its parser refuses
    with pytest.raises(ParseError, match="^unknowns and parameters overlap$"):
        ConstraintSystem(
            dim=2, unknowns=("a1", "a2", "b1", "b2"), params=frozenset({"a1"}), equations=(parse_scalar("a1"),)
        )
    with pytest.raises(ParseError, match=r"^unknowns and parameters overlap \(line 2\)$"):
        parse_constraints("unknowns a1 a2 b1 b2\nparams a1\na1\n")


def test_constraint_system_refuses_an_undeclared_symbol():
    # the message of parse_constraints; such a system emitted a document its
    # parser refuses
    with pytest.raises(ParseError, match="^undeclared symbol 'q'$"):
        ConstraintSystem(
            dim=2, unknowns=("a1", "a2", "b1", "b2"), params=frozenset(), equations=(parse_scalar("a1*q"),)
        )
    with pytest.raises(ParseError, match=r"^undeclared symbol 'q' \(line 2, column 4\)$"):
        parse_constraints("unknowns a1 a2 b1 b2\na1*q\n")
    declared = ConstraintSystem(
        dim=2, unknowns=("a1", "a2", "b1", "b2"), params=frozenset({"q"}), equations=(parse_scalar("a1*q"),)
    )
    assert parse_constraints(emit_constraints(declared)) == declared


@pytest.mark.parametrize(
    "unknowns, params, equation, message",
    [
        # its document, 'unknowns params' then 'params', would read back with no equations
        (("params",), (), "params", "bad unknown name 'params'"),
        # its line 'params + 1' would read as a params line naming the parameter '+'
        (("params",), (), "params + 1", "bad unknown name 'params'"),
        # 'params params', then the line 'params + t', would be two params lines
        (("t",), ("params",), "params + t", "bad parameter name 'params'"),
        # 'unknowns unknowns', then the line 'unknowns', would be two unknowns lines
        (("unknowns",), (), "unknowns", "bad unknown name 'unknowns'"),
        (("t",), ("unknowns",), "unknowns + t", "bad parameter name 'unknowns'"),
    ],
)
def test_a_constraint_system_refuses_the_keywords_of_its_document(unknowns, params, equation, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        ConstraintSystem(
            dim=1, unknowns=unknowns, params=frozenset(params), equations=(parse_scalar(equation, {*unknowns, *params}),)
        )
    head = f"unknowns {' '.join(unknowns)}\n" + (f"params {' '.join(params)}\n" if params else "")
    line = 2 if params else 1
    with pytest.raises(ParseError, match=rf"^{message} \(line {line}\)$"):
        parse_constraints(f"{head}{equation}\n")


def test_constraint_unknown_count_must_be_square():
    with pytest.raises(ParseError, match="perfect square"):
        parse_constraints("unknowns a1 a2 b1\na1\n")


def _calls(monkeypatch, *names):
    """The calls of the named Scalar operators from here on, by name."""
    calls = []
    for name in names:
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda s, o, op=op, name=name: calls.append(name) or op(s, o))
    return calls


@pytest.mark.parametrize("n", [3, 1000])
def test_long_right_hand_sides_parse_without_a_sum_per_term(monkeypatch, n):
    # the terms of a sum merge into one term map in place, and each basis
    # coordinate's terms go into a map of their own: no Scalar sum copies
    # the terms read so far, so a right-hand side parses in linear time
    rhs = " + ".join(f"{k}*b^{k}*e1 - b^{k}*e2" for k in range(1, n + 1))
    doc = f"dim 2\nparams b\nbasis e1 e2\nbinary e1 e1 = {rhs}\n"
    calls = _calls(monkeypatch, "__add__", "__radd__", "__sub__", "__rsub__")
    alg = parse_algebra(doc)
    assert calls == []
    e1 = Scalar({(("b", k),): k for k in range(1, n + 1)})
    e2 = Scalar({(("b", k),): -1 for k in range(1, n + 1)})
    assert alg.binary[0][0] == (e1, e2)
    assert parse_scalar(rhs.replace("*e1", "").replace("*e2", "")) == e1 + e2


def test_a_power_of_a_single_term_makes_no_product(monkeypatch):
    calls = _calls(monkeypatch, "__mul__", "__rmul__")
    assert parse_scalar("b^1023") == Scalar({(("b", 1023),): 1})
    assert Scalar({(("a", 2), ("b", 1)): F(-2, 3)}) ** 5 == Scalar({(("a", 10), ("b", 5)): F(-32, 243)})
    assert calls == []
