from fractions import Fraction as F

import pytest

from hombol import catalog
from hombol.algebra import LinearMap, Vector
from hombol.catalog import cross_check, entries, get, names
from hombol.constructions import yau_twist
from hombol.identities import check_suite
from hombol.scalars import ONE, ZERO, Scalar
from hombol.serialization import format_vector


def test_catalog_names():
    assert names() == ("A1", "A2", "A3", "HB_A2", "HB_A3")
    assert [e.name for e in entries()] == list(names())


def test_describe_mentions_the_morphism_structure():
    descriptions = {e.name: e.description for e in entries()}
    assert descriptions["A1"].startswith("rigid type")
    assert "lambda" in descriptions["A2"] or "families" in descriptions["A2"]


def test_entry_parameter_metadata():
    by_name = {e.name: e for e in entries()}
    assert by_name["A1"].parameters == ()
    assert by_name["A2"].parameters == ("lambda",)
    assert by_name["A3"].required == ("sign",)


def test_untwisted_entries_satisfy_bol():
    assert check_suite(get("A1"), "bol").passed
    assert check_suite(get("A2"), "bol").passed  # for every lambda
    assert check_suite(get("A3", sign="+"), "bol").passed
    assert check_suite(get("A3", sign="-"), "bol").passed


def test_a1_structure_constants():
    a1 = get("A1")
    import hombol.algebra as alg

    e1, e2 = alg.Vector.basis(0, 2), alg.Vector.basis(1, 2)
    assert a1.eval_binary(e1, e2) == alg.Vector((0, -1))
    assert a1.eval_ternary(e1, e2, e1) == alg.Vector((1, 0))
    assert a1.eval_ternary(e1, e2, e2) == alg.Vector((0, -1))
    assert a1.twist.is_identity()


def test_twisted_entry_with_trivial_parameters_is_the_base():
    assert get("HB_A2", a=F(0), b=F(1)) == get("A2")


def test_twisted_a2_satisfies_hom_bol_symbolically():
    assert check_suite(get("HB_A2"), "hom_bol").passed


def test_twisted_a3_fails_only_ternary_compatibility():
    report = check_suite(get("HB_A3", sign="+"), "hom_bol")
    verdicts = dict(report.results)
    failing = {name for name, ce in verdicts.items() if ce is not None}
    assert failing == {"twist_respects_ternary"}
    ce = verdicts["twist_respects_ternary"]
    assert ce.indices == (0, 1, 1)
    assert str(ce.residual) == "(-b^2 + 1, 0)"  # vanishes only when b^2 = 1


def test_entry_name_errors():
    # the message names the entry asked for, also when it is built from another
    for name in ("A3", "HB_A3"):
        with pytest.raises(ValueError, match=f"^{name} needs sign '\\+' or '-'$"):
            get(name)
    with pytest.raises(ValueError, match="^unknown catalog name 'BOGUS'; known: A1, A2, A3, HB_A2, HB_A3$"):
        get("BOGUS")
    with pytest.raises(ValueError, match="unknown catalog name"):
        cross_check("BOGUS", 1)


def test_parameters_an_entry_does_not_have_are_ignored():
    assert get("A1", lam="junk", a=object()) == get("A1")
    assert get("HB_A3", a=object(), sign="+") == get("HB_A3", sign="+")
    assert cross_check("HB_A3", 1, a=object()).format() == cross_check("HB_A3", 1).format()


def test_build_dispatches_by_name():
    for entry in entries():
        alg = get(entry.name, sign="+")
        params = (Scalar.parameter("lambda"), Scalar.parameter("a"), Scalar.parameter("b"), ONE)
        assert alg == entry.build(*params)
        # every parameter but the sign stays symbolic when left unbound
        assert alg.params == set(entry.parameters) - {"sign"}
    assert get("A3", lam=F(2), sign="-") != get("A3", lam=F(2), sign="+")
    # the twisted entries are the Yau twists of A2 and A3 along their maps
    shear_scale = LinearMap.from_columns(((1, F(1)), (0, F(2))))
    assert get("HB_A2", lam=F(3), a=F(1), b=F(2)) == yau_twist(get("A2", lam=F(3)), shear_scale)
    scale = LinearMap.from_columns(((1, 0), (0, F(2))))
    assert get("HB_A3", lam=F(3), b=F(2), sign="-") == yau_twist(
        get("A3", lam=F(3), sign="-"), scale, check=False
    )


# --- cross-check reports ------------------------------------------------------


@pytest.mark.parametrize("n", [0, 3])
def test_cross_check_compares_each_row_once(monkeypatch, n):
    report = cross_check("HB_A2", n)
    compared = []
    eq = Vector.__eq__

    def counting_eq(self, other):
        compared.append(self)
        return eq(self, other)

    monkeypatch.setattr(Vector, "__eq__", counting_eq)
    text = report.format()
    assert len(report.mismatches) == text.count("-> MISMATCH")
    assert len(compared) == len(report.rows)


def two_render_text(row):
    """A row's line with both sides rendered, as it was written before a
    matching row rendered its quoted side once."""
    verdict = "match" if row.match else "MISMATCH"
    return (
        f"{row.label} [{row.source}]: quoted {format_vector(row.quoted, catalog._BASIS)}"
        f" | constructed {format_vector(row.constructed, catalog._BASIS)} -> {verdict}"
    )


@pytest.mark.parametrize(
    "name, n, params",
    [("HB_A2", 0, {}), ("HB_A2", 3, {}), ("HB_A2", 5, {"lam": F(3, 7), "a": F(1, 8)}), ("HB_A3", 2, {"sign": "-"})],
)
def test_a_matching_row_renders_its_quoted_side_once(monkeypatch, name, n, params):
    report = cross_check(name, n, **params)
    assert report.mismatches and len(report.mismatches) < len(report.rows)
    rendered = []

    def counting_format_vector(v, labels):
        rendered.append(v)
        return format_vector(v, labels)

    monkeypatch.setattr(catalog, "format_vector", counting_format_vector)
    for row in report.rows:
        rendered.clear()
        text = row.format()
        if row.match:
            assert rendered == [row.quoted]
        else:
            assert rendered == [row.quoted, row.constructed]
        assert text == two_render_text(row)


def test_cross_check_order_zero_carries_base_and_derived_rows():
    report = cross_check("HB_A2", 0)
    assert len(report.rows) == 10
    assert len(report.mismatches) == 3
    text = report.format()
    assert text.splitlines()[0] == "cross-check HB_A2, derived order 0"
    assert (
        "  ternary e1 e2 e1 [quoted base form]: quoted b*lambda*e2 "
        "| constructed b^2*lambda*e2 -> MISMATCH" in text
    )
    assert (
        "  binary e1 e2 [quoted base form]: quoted -b*e2 "
        "| constructed -b*e2 -> match" in text
    )
    assert text.splitlines()[-1] == "  => 3 mismatch(es) in 10 row(s)"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cross_check_derived_orders_flag_one_power_of_b(n):
    report = cross_check("HB_A2", n)
    assert len(report.rows) == 5
    mismatched = {row.label for row in report.mismatches}
    assert mismatched == {"binary e1 e2", "ternary e1 e2 e1"}
    # the twist rows, geometric sum included, agree exactly
    matching = {row.label for row in report.rows if row.match}
    assert {"alpha e1", "alpha e2"} <= matching


def test_cross_check_first_derived_text():
    text = cross_check("HB_A2", 1).format()
    assert (
        "  binary e1 e2 [quoted derived form, order 1]: quoted -b*e2 "
        "| constructed -b^2*e2 -> MISMATCH" in text
    )
    assert (
        "  alpha e1 [quoted derived form, order 1]: quoted e1 + a*b*e2 + a*e2 "
        "| constructed e1 + a*b*e2 + a*e2 -> match" in text
    )


def test_cross_check_a3_also_flags_the_sign():
    report = cross_check("HB_A3", 2, sign="+")
    assert len(report.rows) == 5
    assert {row.label for row in report.mismatches} == {
        "binary e1 e2",
        "ternary e1 e2 e1",
        "ternary e1 e2 e2",
    }
    assert (
        "  ternary e1 e2 e2 [quoted derived form, order 2]: quoted -e1 "
        "| constructed e1 -> MISMATCH" in report.format()
    )


@pytest.mark.parametrize("n", [0, 2])
def test_cross_check_builds_the_entry_once(monkeypatch, n):
    calls = []
    bol = catalog._bol

    def counting_bol(*cells):
        calls.append(cells)
        return bol(*cells)

    monkeypatch.setattr(catalog, "_bol", counting_bol)
    for name in ("A1", "A2", "A3"):
        calls.clear()
        cross_check(name, n, sign="+")
        assert len(calls) == 1, name


@pytest.mark.parametrize(
    "b", [Scalar.parameter("b"), Scalar.parameter("b") + ONE, F(7, 5), F(-1), F(1), F(0)], ids=str
)
def test_quoted_twist_sum_is_the_running_sum(b):
    b = Scalar.rational(b) if isinstance(b, F) else b
    for n in range(7):
        total, power = ZERO, ONE
        for _ in range(2**n):
            total, power = total + power, power * b
        assert catalog._geometric(b, n) == total, n


def test_cross_check_high_order_with_a_bound_scale():
    # 2^14 terms of the quoted twist sum at a non-unit rational b
    report = cross_check("HB_A2", 14, b=F(7, 5))
    assert {row.label for row in report.mismatches} == {"binary e1 e2", "ternary e1 e2 e1"}
    matching = {row.label for row in report.rows if row.match}
    assert {"alpha e1", "alpha e2"} <= matching


def test_cross_check_untwisted_entries_are_clean():
    for name in ("A1", "A2"):
        for n in (0, 1, 3):
            assert cross_check(name, n).mismatches == ()


def test_cross_check_binds_numeric_parameters():
    report = cross_check("HB_A2", 1, lam=F(1), a=F(0), b=F(2))
    labels = {row.label: row for row in report.rows}
    assert not labels["binary e1 e2"].match  # -2 vs -4
    assert labels["alpha e2"].match


def test_quoted_and_constructed_twist_rows_share_the_bound_coefficient():
    # every factor 1 reuses its operand, so both sides of the alpha e1 row
    # hold the bound a itself, and comparing them compares no Fractions
    a = F(3, 7)
    report = cross_check("HB_A2", 13, a=a)
    row = next(row for row in report.rows if row.label == "alpha e1")
    assert row.match
    for side in (row.quoted, row.constructed):
        coefficients = side._d[1]._terms.values()
        assert len(coefficients) == 2**13
        assert {id(c) for c in coefficients} == {id(a)}
