"""Integer literals longer than Python reads (sys.get_int_max_str_digits()).

Every parser and flag reads its integer tokens through one guard, so such a
literal is a ParseError at its column (and line, in documents and suites),
not Python's own ValueError; the digits are not echoed back.  Integer and
rational flag values are read the same way, before a command does any work,
and a decimal exponent that Fraction would expand without bound is refused.
"""

import sys

import pytest

from hombol.cli import main
from hombol.errors import ParseError
from hombol.identities import parse_suite
from hombol.scalars import parse_scalar
from hombol.serialization import parse_algebra

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

pytestmark = pytest.mark.skipif(LIMIT == 0, reason="Python reads integers of any length here")

BIG = "7" * (LIMIT + 1)
MESSAGE = f"an integer literal of {LIMIT + 1} digits exceeds Python's {LIMIT}-digit limit for reading integers"


def _error(fn, text):
    with pytest.raises(ParseError) as info:
        fn(text)
    message = str(info.value)
    assert message.startswith(MESSAGE)
    assert "7" * 20 not in message
    return message


@pytest.mark.parametrize(
    "text, column",
    [(BIG, 1), ("x + " + BIG + "*y", 5), ("1/" + BIG, 3), ("x^" + BIG, 3)],
    ids=["numerator", "numerator-later", "denominator", "exponent"],
)
def test_scalar_grammar(text, column):
    assert _error(parse_scalar, text).endswith(f"(column {column})")


@pytest.mark.parametrize(
    "body, column",
    [(BIG + " x*y = 0", 7), ("1/" + BIG + " x*y = 0", 9), ("A^" + BIG + "(x) = x", 9)],
    ids=["coefficient", "denominator", "map-power"],
)
def test_identity_files(body, column):
    text = "# a comment\nskew : x*y = -y*x\nbig : " + body + "\n"
    assert _error(parse_suite, text).endswith(f"(line 3, column {column})")


POWER = f"a power of a number would exceed Python's {LIMIT}-digit limit for integers"


@pytest.mark.parametrize(
    "text, column",
    [("3^999999999", 3), ("x + 2/3^9" + "9" * 40, 9), ("-10^" + str(LIMIT), 5), ("1/2^" + str(4 * LIMIT), 5)],
    ids=["integer", "rational", "power-of-ten", "denominator"],
)
def test_numeric_powers_are_bounded(text, column):
    """A numeric power whose numerator or denominator Python could not print
    is refused at its exponent, before it is computed."""
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    assert str(info.value) == f"{POWER} (column {column})"


def test_numeric_powers_within_the_bound():
    assert len(str(parse_scalar("10^" + str(LIMIT - 1)))) == LIMIT
    for base in ("0", "1", "-1", "7/7"):
        assert str(parse_scalar(base + "^999999999")) == str(parse_scalar(base))
    assert str(parse_scalar("b^65536")) == "b^65536"


def test_dim_header():
    assert _error(parse_algebra, "dim " + BIG + "\nbasis e1\n").endswith("(line 1, column 5)")


def test_check_command_exits_2(tmp_path, capsys):
    path = tmp_path / "big.alg"
    path.write_text("dim 2\nbasis e1 e2\nbinary e1 e2 = " + BIG + "*e2\n", encoding="utf-8")
    assert main(["check", str(path), "--suite", "bol"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {MESSAGE} (line 3, column 16)\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--grid", "0,1/" + BIG], f"--grid: {MESSAGE} (column 5)"),
        (["--grid", "0,1", "--bind", "lam=" + BIG], f"--bind: {MESSAGE} (column 5)"),
        (["--grid", "0,1", "--bind", "lam=1/" + BIG[:9] + "_" + BIG[9:]], f"--bind: {MESSAGE} (column 7)"),
        (["--bind", "lam=" + BIG, "--export", "system.txt"], f"--bind: {MESSAGE} (column 5)"),
    ],
    ids=["grid", "bind", "bind-underscored", "bind-export"],
)
def test_morphism_flags_exit_2(tmp_path, monkeypatch, capsys, flags, expected):
    """Flags are read before the constraint system is printed or exported."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "lie.alg"
    path.write_text("dim 3\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = e3\n", encoding="utf-8")
    assert main(["morphisms", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected}\n"
    assert not (tmp_path / "system.txt").exists()


EXPONENT_CAP = "a decimal exponent may not exceed {limit}, Python's limit on integer digits"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["derive", "missing.alg", "--n", BIG], f"--n: {MESSAGE} (column 1)"),
        (["crosscheck", "HB_A2", "--n", BIG], f"--n: {MESSAGE} (column 1)"),
        (["check", "missing.alg", "--suite", "bol", "--twist-exp", BIG], f"--twist-exp: {MESSAGE} (column 1)"),
        (["derive", "missing.alg", "--n", "1.5"], "--n takes an integer"),
        (["catalog", "emit", "HB_A2", "--b=1e5000"], f"--b: {EXPONENT_CAP} (column 2)"),
        (["crosscheck", "HB_A2", "--n", "1", "--a=2.5E-9000"], f"--a: {EXPONENT_CAP} (column 4)"),
        (["catalog", "emit", "A2", "--lambda=1/0"], "--lambda takes a rational: p, p/q or a decimal (column 1)"),
        (["catalog", "emit", "A2", "--lambda=two"], "--lambda takes a rational: p, p/q or a decimal (column 1)"),
    ],
    ids=["n", "crosscheck-n", "twist-exp", "n-not-integer", "exponent", "negative-exponent", "zero-denominator", "word"],
)
def test_flag_values_are_bounded(capsys, argv, message):
    """Integer and rational flags exit 2 with a short message naming the flag,
    before any command runs, and never echo a long value."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(limit=LIMIT) + "\n"
    assert len(captured.err.encode()) < 300
    assert "7" * 20 not in captured.err


@pytest.mark.parametrize(
    "value, entry", [("1e2", "100*e2"), ("0.5", "1/2*e2"), ("1_0", "10*e2"), ("-3/6", "-1/2*e2"), ("+2E0", "2*e2")]
)
def test_flag_rationals_still_accepted(capsys, value, entry):
    assert main(["catalog", "emit", "A2", f"--lambda={value}"]) == 0
    assert f"ternary e1 e2 e1 = {entry}\n" in capsys.readouterr().out


def test_grid_and_bind_rationals_still_accepted(tmp_path, capsys):
    path = tmp_path / "lie.alg"
    path.write_text(
        "dim 3\nparams lam\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = 2*lam*e3\n", encoding="utf-8"
    )
    assert main(["morphisms", str(path), "--grid=0, 1e0,-1_0/1_0", "--bind", "lam=0.5"]) == 0
    # the same grid as --grid=0,1,-1, which finds 657 maps (lam = 1/2 makes
    # the product e1 e2 = e3; scaling a product leaves its morphisms as they are)
    assert "grid search: 657 solution(s)" in capsys.readouterr().out
