"""The README's Python examples run, and print what their comments say.

Every ```python block of README.md runs, in order, in one namespace, so a
later block may use the names an earlier one made.  A top-level statement
``print(...)  # value`` must print ``value``; a comment may go on after the
value with ", " and a remark (``# True, for every lambda``).  A public name
that the package drops or renames thus fails here while the README still
uses it.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _expected(source_line):
    """The value a print statement's trailing comment promises, or None."""
    code, sep, comment = source_line.partition("#")
    return comment.strip() if sep and code.lstrip().startswith("print(") else None


def _run(block, namespace):
    """(expected, printed) for each commented print of the block."""
    lines = block.splitlines()
    checks = []
    for stmt in ast.parse(block).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
        expected = _expected(lines[stmt.lineno - 1]) if stmt.lineno == stmt.end_lineno else None
        if expected is not None:
            checks.append((expected, out.getvalue().rstrip("\n")))
    return checks


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2
    assert sum(_expected(line) is not None for block in BLOCKS for line in block.splitlines()) >= 4


def test_readme_examples_print_what_they_say():
    namespace = {"__name__": "readme"}
    for block in BLOCKS:
        for expected, printed in _run(block, namespace):
            assert expected == printed or expected.startswith(printed + ", "), (expected, printed)


@pytest.mark.parametrize(
    "line, expected",
    [
        ('print(x)  # True', "True"),
        ('print(f(1, 2))  # (0, 2*lambda)', "(0, 2*lambda)"),
        ('x = 1  # not a print', None),
        ('print(x)', None),
    ],
)
def test_expected_values_are_read_from_print_comments(line, expected):
    assert _expected(line) == expected
