import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import hombol
from hombol.catalog import cross_check, get
from hombol.cli import _build_parser, main
from hombol.constructions import malcev_to_bol, nth_derived, self_twist
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
    alg = get("HB_A2", lam=F(1), a=F(0), b=F(2))
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
        tmp_path, "hb3.alg", emit_algebra(get("HB_A3", sign="+"))
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


def test_oversized_dim_fails_fast(tmp_path, capsys):
    path = _write(tmp_path, "huge.alg", "dim 100000\nbasis e1\n")
    start = time.perf_counter()
    assert main(["check", path, "--suite", "bol"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dim may not exceed 32 (line 1, column 5)\n"


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


def test_twist_refuses_a_map_parameter_that_is_a_basis_label_of_the_algebra(tmp_path, capsys):
    # the map's own basis is f1 f2, so its document is good; the twisted
    # algebra would declare a parameter e1 beside its basis label e1
    path = _write(tmp_path, "zero.alg", "dim 2\nbasis e1 e2\n")
    map_path = _write(tmp_path, "m.map", "dim 2\nparams e1\nbasis f1 f2\nalpha f1 = f1\nalpha f2 = e1*f2\n")
    assert main(["twist", path, "--map", map_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: basis labels and parameters overlap\n"


def test_twist_refuses_a_clashing_map_parameter_before_the_endomorphism_check(tmp_path, capsys):
    # the map is no endomorphism of this algebra: checked first, its residual
    # read the parameter e1 as the basis label e1 and the command exited 3
    path = _write(tmp_path, "a.alg", "dim 2\nbasis e1 e2\nbinary e1 e2 = e1\n")
    map_path = _write(tmp_path, "m.map", "dim 2\nparams e1\nbasis f1 f2\nalpha f1 = f1\nalpha f2 = e1*f2\n")
    assert main(["twist", path, "--map", map_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: basis labels and parameters overlap\n"


def test_derive_command(tmp_path, capsys, hb2_file):
    path, alg = hb2_file
    assert main(["derive", str(path), "--n", "1"]) == 0
    assert capsys.readouterr().out == emit_algebra(nth_derived(alg, 1))
    assert main(["derive", str(path), "--n", "99"]) == 3
    assert "exceeds the exponent limit 16" in capsys.readouterr().err


def test_derive_and_crosscheck_refuse_a_negative_order_alike(capsys, hb2_file):
    path, _ = hb2_file
    for argv in (["derive", str(path), "--n", "-1"], ["crosscheck", "HB_A2", "--n", "-1"]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nth_derived: the order n must be a nonnegative integer\n"


def test_derive_result_too_long_to_print(tmp_path, capsys):
    # at n = 14 the twist entry (3/2)^(2^14) has a 7,818-digit numerator
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 7818:
        pytest.skip("needs Python's default limit on printing long integers")
    path = _write(tmp_path, "hb2.alg", emit_algebra(get("HB_A2", b=F(3, 2))))
    assert main(["derive", path, "--n", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a coefficient of the result exceeds Python's {limit}-digit limit for printing "
        "integers; use a lower --n, or leave the parameter symbolic\n"
    )


def test_seq_command(tmp_path, capsys, hb2_file):
    path, alg = hb2_file
    assert main(["twist", str(path), "--n", "2"]) == 0
    assert capsys.readouterr().out == emit_algebra(self_twist(alg, alg.twist, 2))


def test_twist_and_seq_order_zero_print_the_input(tmp_path, capsys, hb2_file):
    path, alg = hb2_file
    map_path = _write(tmp_path, "alpha.map", emit_map(alg.twist, alg.basis))
    for argv in (["twist", str(path), "--map", map_path, "--n", "0"], ["twist", str(path), "--n", "0"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["twist", "hb2.alg", "--map", "alpha.map", "--n", "100000000"], 3, "exponent limit 131072"),
        (["twist", "hb2.alg", "--n", "100000000"], 3, "exponent limit 131072"),
        (["check", "hb2.alg", "--suite", "hom_bol", "--twist-exp", "100000000"], 3, "exponent limit 131072"),
        (["check", "hb2.alg", "--identity", "big.ids"], 3, "exponent limit 131072"),
        (["check", "pow.alg", "--suite", "bol"], 2, "limit for integers (line 3, column 18)"),
    ],
    ids=["twist-n", "seq-n", "twist-exp", "identity-power", "numeric-power"],
)
def test_oversized_exponents_fail_fast(tmp_path, monkeypatch, capsys, argv, code, message):
    """Every map power passes one exponent cap, and a numeric power in a
    document is refused before it is computed."""
    monkeypatch.chdir(tmp_path)
    alg = get("HB_A2")
    _write(tmp_path, "hb2.alg", emit_algebra(alg))
    _write(tmp_path, "alpha.map", emit_map(alg.twist, alg.basis))
    _write(tmp_path, "big.ids", "big : A^1000000000(x) = x\n")
    _write(tmp_path, "pow.alg", "dim 1\nbasis e1\nbinary e1 e1 = 3^999999999*e1\n")
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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


def test_morphisms_refuses_a_parameter_named_like_a_constraint_keyword(tmp_path, capsys):
    path = _write(tmp_path, "kw.alg", "dim 2\nparams params\nbasis e1 e2\nbinary e1 e2 = params*e2\n")
    assert main(["morphisms", path]) == 2
    assert capsys.readouterr().err == "error: bad parameter name 'params'\n"


def test_morphisms_grid_in_dimension_three(tmp_path, capsys):
    path = _write(tmp_path, "cross.alg", CROSS_LIE_DOC)
    assert main(["morphisms", path, "--grid=-1,0,1"]) == 0
    out = capsys.readouterr().out
    assert "grid search: 25 solution(s)" in out  # 24 rotations plus the zero map


P3_DOC = "dim 3\nparams p\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = p*e3\n"


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        (P3_DOC, ["--grid=0"], "unbound parameter 'p'"),
        (P3_DOC, ["--grid=0", "--export", "system.eqs"], "unbound parameter 'p'"),
        (P3_DOC, ["--grid=0", "--bind", "p=1", "--bind", "nosuch=1"], "--bind: 'nosuch' is not a parameter of the algebra"),
        (emit_algebra(get("A1")), ["--bind", "lambda=1"], "--bind: 'lambda' is not a parameter of the algebra"),
        (P3_DOC, ["--bind", "q" * 5000 + "=1"], "--bind: '" + "q" * 40 + "...' is not a parameter of the algebra"),
        (P3_DOC, ["--bind", "p=1"], "--bind binds parameters for the grid search, so it needs --grid "
                                     "(in dimension 2 the default grid is used)"),
    ],
    ids=["grid-unbound", "grid-unbound-export", "bind-stray", "bind-stray-dim2", "bind-stray-long", "bind-no-grid"],
)
def test_morphisms_flag_mismatch_exits_2_before_output(tmp_path, monkeypatch, capsys, doc, flags, message):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "p.alg", doc)
    assert main(["morphisms", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "system.eqs").exists()


def test_morphisms_grid_with_bound_parameter(tmp_path, capsys):
    path = _write(tmp_path, "p.alg", P3_DOC)
    assert main(["morphisms", path, "--grid=0", "--bind", "p=1"]) == 0
    assert "grid search: 1 solution(s)" in capsys.readouterr().out  # the zero map


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


def test_bind_given_twice_is_refused(tmp_path, capsys):
    path = _write(tmp_path, "a2.alg", emit_algebra(get("A2")))
    assert main(["morphisms", path, "--bind", "lambda=1", "--bind", "lambda=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --bind: 'lambda' is given twice\n"


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
    for name in ("A3", "HB_A3"):
        assert main(["catalog", "emit", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} needs sign '+' or '-'\n"
    assert main(["catalog", "emit", "A3", "--sign", "-"]) == 0


def test_crosscheck_command(capsys):
    assert main(["crosscheck", "HB_A2", "--n", "1"]) == 0
    assert capsys.readouterr().out == cross_check("HB_A2", 1).format() + "\n"


def test_crosscheck_numeric_binding(capsys):
    assert main(["crosscheck", "HB_A2", "--n", "0", "--b", "2", "--a", "0"]) == 0
    out = capsys.readouterr().out
    assert "quoted -2*e2 | constructed -2*e2 -> match" in out


# --- one parser per process ---------------------------------------------------------


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def _fresh(argv):
    """stdout, stderr and exit code of ``hombol argv`` in a new interpreter."""
    src = str(Path(hombol.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from hombol.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False,
    )
    return run.stdout, run.stderr, run.returncode


def test_calls_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    so3 = _write(tmp_path, "so3.alg", CROSS_LIE_DOC)
    a1 = _write(tmp_path, "a1.alg", emit_algebra(get("A1")))
    a3 = _write(tmp_path, "a3.alg", emit_algebra(get("A3", sign="-")))
    skew = _write(tmp_path, "skew.ids", "skew : x*y = -y*x\n")
    calls = [
        ["morphisms", so3, "--grid=-1,0,1"],
        ["morphisms", a3, "--bind", "lambda=1/2"],
        ["morphisms", a1],
        ["morphisms", a3, "--bind", "lambda=2", "--grid=0,1"],
        ["check", a1, "--suite", "bol"],
        ["check", a1, "--identity", skew],
        # --sign has no default for catalog and "+" for crosscheck
        ["catalog", "emit", "HB_A3", "--sign=-"],
        ["crosscheck", "HB_A3", "--n", "1"],
        # an argparse usage error and a flag error, then a good call
        ["check", a1],
        ["morphisms", so3, "--grid=-1,0,1", "--bind", "x=1"],
        ["catalog", "list"],
    ]
    results = [_in_process(argv, capsys) for argv in calls]
    assert [code for _, _, code in results] == [0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0]
    assert "usage: hombol check" in results[8][1]
    assert _build_parser.cache_info().misses == 1
    for argv, got in zip(calls, results):
        assert got == _fresh(argv), argv


def test_an_identity_nested_too_deep_is_a_usage_error(tmp_path, capsys):
    # 250 brackets used to end in a RecursionError traceback and exit 1,
    # the exit code of a FAIL verdict
    so3 = _write(tmp_path, "so3.alg", CROSS_LIE_DOC)
    deep = _write(tmp_path, "deep.id", "deep : " + "(" * 250 + "x*y" + ")" * 250 + " = 0\n")
    out, err, code = _in_process(["check", so3, "--identity", deep], capsys)
    assert (out, err, code) == ("", "error: expressions nested more than 32 deep (line 1, column 40)\n", 2)


def test_a_closed_stdout_ends_the_command_quietly(tmp_path):
    # the reading end is closed before hombol writes, as `| head -1` closes
    # it after one line; main reported that as "error: 32" with exit 2
    so3 = _write(tmp_path, "so3.alg", CROSS_LIE_DOC)
    src = str(Path(hombol.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from hombol.cli import console; sys.exit(console())",
         "morphisms", so3, "--grid=-1,0,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (err, proc.returncode) == (b"", 141)
    # an open stdout gets everything, with main's exit code
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from hombol.cli import console; sys.exit(console())",
         "morphisms", so3, "--grid=-1,0,1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60, check=False,
    )
    assert (run.stdout, run.stderr, run.returncode) == _fresh(["morphisms", so3, "--grid=-1,0,1"])
    assert run.returncode == 0 and "grid search: 25 solution(s)\n" in run.stdout
