"""Integer literals longer than Python reads (sys.get_int_max_str_digits()).

Every parser and flag reads its integer tokens through one guard, so such a
literal is a ParseError at its column (and line, in documents and suites),
not Python's own ValueError; the digits are not echoed back.
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
    [(BIG + " x*y = 0", 2), ("1/" + BIG + " x*y = 0", 4), ("A^" + BIG + "(x) = x", 4)],
    ids=["coefficient", "denominator", "map-power"],
)
def test_identity_files(body, column):
    text = "# a comment\nskew : x*y = -y*x\nbig : " + body + "\n"
    assert _error(parse_suite, text).endswith(f"(column {column}) (line 3)")


def test_dim_header():
    assert _error(parse_algebra, "dim " + BIG + "\nbasis e1\n").endswith("(line 1, column 5)")


def test_check_command_exits_2(tmp_path, capsys):
    path = tmp_path / "big.alg"
    path.write_text("dim 2\nbasis e1 e2\nbinary e1 e2 = " + BIG + "*e2\n", encoding="utf-8")
    assert main(["check", str(path), "--suite", "bol"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {MESSAGE} (column 2) (line 3)\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--grid", "0,1/" + BIG], f"--grid: {MESSAGE} (column 5)"),
        (["--grid", "0,1", "--bind", "lam=" + BIG], f"--bind: {MESSAGE} (column 5)"),
        (["--grid", "0,1", "--bind", "lam=1/" + BIG[:9] + "_" + BIG[9:]], f"--bind: {MESSAGE} (column 7)"),
    ],
    ids=["grid", "bind", "bind-underscored"],
)
def test_morphism_flags_exit_2(tmp_path, capsys, flags, expected):
    path = tmp_path / "lie.alg"
    path.write_text("dim 3\nbasis e1 e2 e3\ncomplete skew-binary\nbinary e1 e2 = e3\n", encoding="utf-8")
    assert main(["morphisms", str(path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
