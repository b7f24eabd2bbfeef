import sys
from fractions import Fraction as F

import pytest

from hombol.catalog import cross_check, get, get_twisted
from hombol.cli import main
from hombol.constructions import malcev_to_bol, nth_derived, self_twist, sequence_member
from hombol.morphisms import generate_constraints
from hombol.serialization import emit_algebra, emit_constraints, emit_map, parse_algebra

CROSS_LIE_DOC = (
    "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\n"
    "binary e1 e2 = e3\nbinary e2 e3 = e1\nbinary e3 e1 = e2\n"
)
NOT_MALCEV_DOC = (
    "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\n"
    "binary e1 e2 = e3\nbinary e1 e3 = e1\nbinary e2 e3 = e2\n"
)


@pytest.fixture()
def hb2_file(tmp_path):
    alg = get_twisted("HB_A2", lam=F(1), a=F(0), b=F(2))
    path = tmp_path / "hb2.alg"
    path.write_text(emit_algebra(alg), encoding="utf-8")
    return path, alg


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- check -------------------------------------------------------------------


def test_check_suite_pass(tmp_path, capsys):
    path = _write(tmp_path, "a1.alg", emit_algebra(get("A1")))
    assert main(["check", path, "--suite", "bol"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite bol (twist exponent 1)")
    assert "  => pass" in out


def test_check_suite_failure_prints_counterexample(tmp_path, capsys):
    path = _write(
        tmp_path, "hb3.alg", emit_algebra(get_twisted("HB_A3", sign="+"))
    )
    assert main(["check", path, "--suite", "hom_bol"]) == 1
    out = capsys.readouterr().out
    assert "twist_respects_ternary: FAIL at (x=e1, y=e2, z=e2)" in out
    assert "  => FAIL" in out


def test_check_custom_identity_file(tmp_path, capsys):
    alg_path = _write(tmp_path, "a1.alg", emit_algebra(get("A1")))
    good = _write(tmp_path, "skew.ids", "skew : x*y = -y*x\n")
    bad = _write(tmp_path, "vanish.ids", "vanish : x*y = 0\n")
    assert main(["check", alg_path, "--identity", good]) == 0
    capsys.readouterr()
    assert main(["check", alg_path, "--identity", bad]) == 1
    assert "vanish: FAIL at (x=e1, y=e2)" in capsys.readouterr().out


def test_check_twist_exponent_flag(tmp_path, capsys):
    flip = "dim 2\nbasis e1 e2\nalpha e1 = e1\nalpha e2 = -e2\n"
    alg_path = _write(tmp_path, "flip.alg", flip)
    ids = _write(tmp_path, "inv.ids", "involutive : A(x) = x\n")
    assert main(["check", alg_path, "--identity", ids]) == 1
    capsys.readouterr()
    assert main(["check", alg_path, "--identity", ids, "--twist-exp", "2"]) == 0
    assert "twist exponent 2" in capsys.readouterr().out


def test_check_unknown_suite(tmp_path, capsys):
    path = _write(tmp_path, "a1.alg", emit_algebra(get("A1")))
    assert main(["check", path, "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent.alg", "--suite", "bol"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_bad_document(tmp_path, capsys):
    path = _write(tmp_path, "bad.alg", "dim 2\nbasis e1 e2\nbinary e1 e2 = c*e1\n")
    assert main(["check", path, "--suite", "bol"]) == 2
    assert "undeclared symbol 'c'" in capsys.readouterr().err


# --- constructions -----------------------------------------------------------


def test_twist_command_matches_library(tmp_path, capsys, hb2_file):
    path, alg = hb2_file
    map_path = _write(tmp_path, "beta.map", emit_map(alg.twist, alg.basis))
    assert main(["twist", str(path), "--map", map_path, "--n", "1"]) == 0
    assert capsys.readouterr().out == emit_algebra(self_twist(alg, alg.twist, 1))


def test_twist_rejects_non_commuting_map(tmp_path, capsys, hb2_file):
    path, alg = hb2_file
    shear = "dim 2\nbasis e1 e2\nalpha e1 = e1 + e2\nalpha e2 = e2\n"
    map_path = _write(tmp_path, "shear.map", shear)
    assert main(["twist", str(path), "--map", map_path]) == 3
    assert "commute" in capsys.readouterr().err


def test_twist_rejects_wrong_dimension_map(tmp_path, capsys, hb2_file):
    path, _ = hb2_file
    map3 = "dim 3\nbasis e1 e2 e3\nalpha e1 = e1\nalpha e2 = e2\nalpha e3 = e3\n"
    map_path = _write(tmp_path, "id3.map", map3)
    assert main(["twist", str(path), "--map", map_path]) == 3
    assert "dimension" in capsys.readouterr().err


def test_derive_command(tmp_path, capsys, hb2_file):
    path, alg = hb2_file
    assert main(["derive", str(path), "--n", "1"]) == 0
    assert capsys.readouterr().out == emit_algebra(nth_derived(alg, 1))
    assert main(["derive", str(path), "--n", "99"]) == 3
    assert "exceeds the exponent limit 16" in capsys.readouterr().err


def test_derive_result_too_long_to_print(tmp_path, capsys):
    # at n = 14 the twist entry (3/2)^(2^14) has a 7,818-digit numerator
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 7818:
        pytest.skip("needs Python's default limit on printing long integers")
    path = _write(tmp_path, "hb2.alg", emit_algebra(get_twisted("HB_A2", b=F(3, 2))))
    assert main(["derive", path, "--n", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a coefficient of the result exceeds Python's {limit}-digit limit for printing "
        "integers; use a lower --n, or leave the parameter symbolic\n"
    )


def test_seq_command(tmp_path, capsys, hb2_file):
    path, alg = hb2_file
    assert main(["seq", str(path), "--n", "2"]) == 0
    assert capsys.readouterr().out == emit_algebra(sequence_member(alg, None, 2))


def test_malcev2bol_command(tmp_path, capsys):
    path = _write(tmp_path, "cross.alg", CROSS_LIE_DOC)
    assert main(["malcev2bol", path]) == 0
    expected = emit_algebra(malcev_to_bol(parse_algebra(CROSS_LIE_DOC)))
    assert capsys.readouterr().out == expected


def test_malcev2bol_with_map(tmp_path, capsys):
    path = _write(tmp_path, "cross.alg", CROSS_LIE_DOC)
    diag = (
        "dim 3\nbasis e1 e2 e3\nalpha e1 = e1\nalpha e2 = -e2\nalpha e3 = -e3\n"
    )
    map_path = _write(tmp_path, "diag.map", diag)
    assert main(["malcev2bol", path, "--map", map_path]) == 0
    out = capsys.readouterr().out
    assert "alpha e2 = -e2" in out


def test_malcev2bol_rejects_non_malcev(tmp_path, capsys):
    path = _write(tmp_path, "bad.alg", NOT_MALCEV_DOC)
    assert main(["malcev2bol", path]) == 3
    assert "not Malcev" in capsys.readouterr().err


# --- morphisms ---------------------------------------------------------------


def test_morphisms_classifies_dimension_two(tmp_path, capsys):
    path = _write(tmp_path, "a1.alg", emit_algebra(get("A1")))
    assert main(["morphisms", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("unknowns a1 a2 b1 b2\n")
    assert "grid check: 2 solution(s), zero map included" in out


def test_morphisms_bind_and_export(tmp_path, capsys):
    path = _write(tmp_path, "a2.alg", emit_algebra(get("A2")))
    export = tmp_path / "system.eqs"
    assert main(["morphisms", path, "--bind", "lambda=1", "--export", str(export)]) == 0
    out = capsys.readouterr().out
    assert f"wrote 10 equation(s) to {export}" in out
    assert export.read_text(encoding="utf-8").startswith("unknowns a1 a2 b1 b2\n")
    assert "grid check:" in out  # binding lambda lets the grid run


def test_morphisms_bad_binding(tmp_path, capsys):
    path = _write(tmp_path, "a2.alg", emit_algebra(get("A2")))
    assert main(["morphisms", path, "--bind", "lambda"]) == 2
    assert "NAME=RATIONAL" in capsys.readouterr().err


def test_morphisms_grid_in_dimension_three(tmp_path, capsys):
    path = _write(tmp_path, "cross.alg", CROSS_LIE_DOC)
    assert main(["morphisms", path, "--grid=-1,0,1"]) == 0
    out = capsys.readouterr().out
    assert "grid search: 25 solution(s)" in out  # 24 rotations plus the zero map


def test_morphisms_on_a_twisted_algebra(capsys, hb2_file):
    path, alg = hb2_file
    assert main(["morphisms", str(path)]) == 0
    out = capsys.readouterr().out
    system = generate_constraints(alg)
    assert len(system.equations) == 12  # product equations plus the twist's
    assert out.startswith(emit_constraints(system))
    assert "grid check:" in out


def test_bind_without_equals_is_not_echoed(tmp_path, capsys):
    path = _write(tmp_path, "a2.alg", emit_algebra(get("A2")))
    assert main(["morphisms", path, "--bind", "x" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --bind takes NAME=RATIONAL\n"


# --- catalog and crosscheck ----------------------------------------------------


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "A1: rigid type" in out
    assert "A3 [lambda, sign (required)]:" in out


def test_catalog_emit(capsys):
    assert main(["catalog", "emit", "A2"]) == 0
    assert capsys.readouterr().out == emit_algebra(get("A2"))
    assert main(["catalog", "emit", "A2", "--lambda", "2"]) == 0
    assert "ternary e1 e2 e1 = 2*e2" in capsys.readouterr().out


def test_catalog_emit_needs_name(capsys):
    assert main(["catalog", "emit"]) == 2
    assert "needs an entry name" in capsys.readouterr().err


def test_catalog_emit_sign_errors(capsys):
    assert main(["catalog", "emit", "A3"]) == 2
    assert "needs sign" in capsys.readouterr().err
    capsys.readouterr()
    assert main(["catalog", "emit", "A3", "--sign", "-"]) == 0


def test_crosscheck_command(capsys):
    assert main(["crosscheck", "HB_A2", "--n", "1"]) == 0
    assert capsys.readouterr().out == cross_check("HB_A2", 1).format() + "\n"


def test_crosscheck_numeric_binding(capsys):
    assert main(["crosscheck", "HB_A2", "--n", "0", "--b", "2", "--a", "0"]) == 0
    out = capsys.readouterr().out
    assert "quoted -2*e2 | constructed -2*e2 -> match" in out
