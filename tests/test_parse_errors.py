"""Error texts of every text-format reader, pinned.

The scalar grammar, the identity grammar and the three document formats
share one token reader, one line splitter and one document loop, so each
message below (and its line and column) must come out of the shared code
exactly as it did from the per-grammar copies it replaced.  Two deliberate
changes: a zero denominator in the scalar grammar is reported at the
denominator's column, as identity files always reported it, not at the
numerator's; and an error inside a right-hand side, a suite line's identity
or a constraint line is reported as (line L, column C) with C counted in the
source line, where it used to read (column c) (line L) with c counted from
the start of the right-hand side or identity body.
"""

import pytest

from hombol.errors import MultilinearityError, ParseError
from hombol.identities import NESTING_LIMIT, SUITES, parse_identity, parse_suite
from hombol.scalars import parse_scalar
from hombol.serialization import DIM_LIMIT, parse_algebra, parse_constraints, parse_map

H = "dim 2\nbasis e1 e2\n"

READERS = {
    "scalar": parse_scalar,
    "identity": parse_identity,
    "suite": parse_suite,
    "algebra": parse_algebra,
    "map": parse_map,
    "constraints": parse_constraints,
}

CASES = [
    ('scalar', '', ParseError, 'empty scalar'),
    ('scalar', '   ', ParseError, 'empty scalar'),
    ('scalar', '1 $', ParseError, "unexpected character '$' (column 3)"),
    # the denominator's column, as identity files report it
    ('scalar', '1/0', ParseError, 'zero denominator (column 3)'),
    # the denominator's column, as identity files report it
    ('scalar', '2 + 3/0*x', ParseError, 'zero denominator (column 7)'),
    ('scalar', '1/', ParseError, 'expected a denominator (column 3)'),
    ('scalar', '1/x', ParseError, 'expected a denominator (column 3)'),
    ('scalar', 'x^', ParseError, 'expected an integer exponent (column 3)'),
    ('scalar', 'x^y', ParseError, 'expected an integer exponent (column 3)'),
    ('scalar', '2^x', ParseError, 'expected an integer exponent (column 3)'),
    ('scalar', 'x y', ParseError, "unexpected trailing 'y' (column 3)"),
    ('scalar', '*x', ParseError, "expected a number or name, got '*' (column 1)"),
    ('scalar', 'x +', ParseError, 'unexpected end of input (column 4)'),
    ('scalar', '(x)', ParseError, "unexpected character '(' (column 1)"),
    ('scalar', 'x = 1', ParseError, "unexpected character '=' (column 3)"),
    ('scalar', '--x', ParseError, "expected a number or name, got '-' (column 2)"),
    ('scalar', '1/2/3', ParseError, "unexpected trailing '/' (column 4)"),
    ('scalar', 'x^2^3', ParseError, "unexpected trailing '^' (column 4)"),
    ('scalar', 'x*', ParseError, 'unexpected end of input (column 3)'),
    ('identity', 'x*y', ParseError, "expected '=' (column 4)"),
    ('identity', 'x*y = ', ParseError, 'unexpected end of input (column 7)'),
    ('identity', 'x*y = -y*x extra', ParseError, "unexpected trailing 'extra' (column 12)"),
    ('identity', 'x*y*z = 0', ParseError, 'ambiguous product chain: the binary operation is not associative, parenthesize (column 4)'),
    ('identity', '1/0 x*y = 0', ParseError, 'zero denominator (column 3)'),
    ('identity', '1/ x*y = 0', ParseError, 'expected a denominator (column 4)'),
    ('identity', '2 = 0', ParseError, 'a bare rational term must be 0 (column 1)'),
    ('identity', 'x*y = 1/2', ParseError, 'a bare rational term must be 0 (column 7)'),
    ('identity', 'A^(x) = x', ParseError, 'expected an integer power of A (column 3)'),
    ('identity', 'A^2 x = x', ParseError, "expected '(' (column 5)"),
    ('identity', 'cyc(x,y; x) = 0', ParseError, "expected ',' (column 8)"),
    ('identity', 'cyc(x,x,y; {x,x,y}) = 0', ParseError, 'cyc needs three distinct variables (column 1)'),
    ('identity', 'cyc(x,A,y; x) = 0', ParseError, 'cyc binds three plain variable names (column 7)'),
    ('identity', '{x,y} = 0', ParseError, "expected ',' (column 5)"),
    ('identity', 'x $ y = 0', ParseError, "unexpected character '$' (column 3)"),
    ('identity', 'x*y = )', ParseError, "expected a variable, product, or sum, got ')' (column 7)"),
    ('identity', 'x*y = y', MultilinearityError, "identity 'identity' is not multilinear: variable 'x' is missing from the right-side term 'y'"),
    ('identity', 'x*x = 0', MultilinearityError, "identity 'identity' is not multilinear: variable 'x' appears 2 times in the left-side term 'x*x'"),
    ('identity', '(x + y*z) = 0', MultilinearityError, "identity 'identity' is not multilinear: variable 'y' is missing from the left-side term 'x'"),
    ('identity', 'x*y = y*x = 0', ParseError, "unexpected trailing '=' (column 11)"),
    ('suite', 'just text', ParseError, "expected 'name : identity' (line 1)"),
    ('suite', '# c\n\n1bad : x = x', ParseError, "bad identity name '1bad' (line 3)"),
    ('suite', ' : x = x', ParseError, "bad identity name '' (line 1)"),
    ('suite', 'a : x*y = -y*x\na : x = x', ParseError, "duplicate identity name 'a' (line 2)"),
    ('suite', 'a : x*y = ', ParseError, 'unexpected end of input (line 1, column 10)'),
    ('suite', 'a : x*x = 0', MultilinearityError, "identity 'a' is not multilinear: variable 'x' appears 2 times in the left-side term 'x*x' (line 1)"),
    ('suite', 'ok : x = x # note\nb : 1/0 x = x', ParseError, 'zero denominator (line 2, column 7)'),
    ('algebra', '', ParseError, 'missing dim line'),
    ('algebra', 'dim 2', ParseError, 'missing basis line'),
    ('algebra', 'dim 2\ndim 2', ParseError, 'duplicate dim line (line 2)'),
    ('algebra', 'dim x', ParseError, 'dim takes one positive integer (line 1)'),
    ('algebra', 'dim 0', ParseError, 'dim takes one positive integer (line 1)'),
    ('algebra', 'dim 2 3', ParseError, 'dim takes one positive integer (line 1)'),
    ('algebra', 'basis e1', ParseError, 'dim must come before basis (line 1)'),
    ('algebra', 'dim 2\nbasis e1', ParseError, 'basis needs 2 distinct labels (line 2)'),
    ('algebra', 'dim 2\nbasis e1 e1', ParseError, 'basis needs 2 distinct labels (line 2)'),
    ('algebra', 'dim 2\nbasis e1 2x', ParseError, "bad basis label '2x' (line 2)"),
    ('algebra', 'dim 2\nparams a a', ParseError, 'duplicate parameter name (line 2)'),
    ('algebra', 'dim 2\nparams 1a', ParseError, "bad parameter name '1a' (line 2)"),
    ('algebra', 'dim 2\nparams a\nbasis a e2', ParseError, 'basis labels and parameters overlap (line 3)'),
    ('algebra', 'dim 2\nparams a\nparams b', ParseError, 'duplicate params line (line 3)'),
    ('algebra', H + 'basis e1 e2', ParseError, 'duplicate basis line (line 3)'),
    ('algebra', 'dim 2\nbinary e1 e2 = e1', ParseError, 'basis must be declared before assignments (line 2)'),
    ('algebra', H + '= e1', ParseError, 'missing keyword (line 3)'),
    ('algebra', H + 'binary e1 = e1', ParseError, "expected 'binary <label> <label> = <value>' (line 3)"),
    ('algebra', H + 'binary e1 e2 e1', ParseError, "expected 'binary <label> <label> = <value>' (line 3)"),
    ('algebra', H + 'binary e1 e3 = e1', ParseError, "undeclared symbol 'e3' (line 3)"),
    ('algebra', H + 'binary e1 e2 = ', ParseError, 'missing right-hand side (line 3)'),
    ('algebra', H + 'binary e1 e2 = e1\nbinary e1 e2 = e2', ParseError, 'duplicate assignment for binary e1 e2 (line 4)'),
    ('algebra', H + 'binary e1 e2 = e1*e2', ParseError, 'right-hand side must be a linear combination of basis vectors (line 3)'),
    ('algebra', H + 'binary e1 e2 = 3', ParseError, 'right-hand side must be a linear combination of basis vectors (line 3)'),
    ('algebra', H + 'binary e1 e2 = e1^2', ParseError, 'right-hand side must be a linear combination of basis vectors (line 3)'),
    ('algebra', H + 'binary e1 e2 = x*e1', ParseError, "undeclared symbol 'x' (line 3, column 16)"),
    # the denominator's column, as identity files report it
    ('algebra', H + 'binary e1 e2 = 1/0*e1', ParseError, 'zero denominator (line 3, column 18)'),
    ('algebra', H + 'complete skew', ParseError, 'complete takes skew-binary or skew-ternary (line 3)'),
    ('algebra', H + 'complete', ParseError, 'complete takes skew-binary or skew-ternary (line 3)'),
    ('algebra', H + 'foo e1', ParseError, "unknown keyword 'foo' (line 3)"),
    ('algebra', H + 'complete skew-binary\nbinary e1 e1 = e1', ParseError, 'conflicting assignment: binary product at (0, 0) must vanish under skew completion (line 4)'),
    ('algebra', H + 'complete skew-binary\nbinary e1 e2 = e1\nbinary e2 e1 = e1', ParseError, 'conflicting assignment: binary product at (1, 0) breaks skew symmetry (line 5)'),
    ('algebra', H + 'complete skew-ternary\nternary e2 e2 e1 = e1', ParseError, 'conflicting assignment: ternary product at (1, 1, 0) must vanish under skew completion (line 4)'),
    ('algebra', H + 'complete skew-ternary\nternary e1 e2 e1 = e1\nternary e2 e1 e1 = e2', ParseError, 'conflicting assignment: ternary product at (1, 0, 0) breaks skew symmetry (line 5)'),
    ('algebra', H + 'alpha e1 = e1', ParseError, "alpha image missing for 'e2'"),
    ('algebra', H + 'complete skew-binary\nbinary e1 e1 = e1\nalpha e1 = e1', ParseError, 'conflicting assignment: binary product at (0, 0) must vanish under skew completion (line 4)'),
    ('algebra', H + 'ternary e1 e2 = e1', ParseError, "expected 'ternary <label> <label> <label> = <value>' (line 3)"),
    ('algebra', H + 'alpha e1 e2 = e1', ParseError, "expected 'alpha <label> = <value>' (line 3)"),
    ('algebra', H + 'binary e1 e2 = e1 $', ParseError, "unexpected character '$' (line 3, column 19)"),
    ('algebra', H + 'binary e1 e2 = e1 = e2', ParseError, "unexpected character '=' (line 3, column 19)"),
    ('algebra', 'binary e1 e2 = e1\ndim 2', ParseError, 'basis must be declared before assignments (line 1)'),
    ('algebra', 'dim 2\nparams a\nbasis e1 e2\nalpha e1 = e1\nalpha e2 = a*e2 + b*e1', ParseError, "undeclared symbol 'b' (line 5, column 19)"),
    ('map', '', ParseError, 'missing dim line'),
    ('map', 'dim 2', ParseError, 'missing basis line'),
    ('map', H, ParseError, "alpha image missing for 'e1'"),
    ('map', H + 'binary e1 e2 = e1', ParseError, 'map documents allow only header and alpha lines (line 3)'),
    ('map', H + 'complete skew-binary', ParseError, 'map documents allow only header and alpha lines (line 3)'),
    ('map', 'dim 2\nalpha e1 = e1', ParseError, 'basis must be declared before assignments (line 2)'),
    ('map', 'foo\ndim 2', ParseError, 'map documents allow only header and alpha lines (line 1)'),
    ('map', H + 'alpha e1 = e1\nalpha e1 = e2', ParseError, 'duplicate assignment for alpha e1 (line 4)'),
    ('map', H + 'alpha e1', ParseError, "expected 'alpha <label> = <value>' (line 3)"),
    ('map', H + 'alpha e3 = e1', ParseError, "undeclared symbol 'e3' (line 3)"),
    ('map', H + 'alpha e1 = e1\n=', ParseError, 'missing keyword (line 4)'),
    ('map', H + 'alpha e1 =', ParseError, 'missing right-hand side (line 3)'),
    ('map', H + 'alpha e1 = e1', ParseError, "alpha image missing for 'e2'"),
    # the denominator's column, as identity files report it
    ('map', H + 'alpha e1 = 1/0*e1\nalpha e2 = e2', ParseError, 'zero denominator (line 3, column 14)'),
    ('map', H + 'alpha e1 = e1*e1\nalpha e2 = e2', ParseError, 'right-hand side must be a linear combination of basis vectors (line 3)'),
    ('constraints', '', ParseError, 'missing unknowns line'),
    ('constraints', 'x + 1', ParseError, 'unknowns must come first (line 1)'),
    ('constraints', 'params a', ParseError, 'unknowns must come first (line 1)'),
    ('constraints', 'unknowns', ParseError, 'unknowns takes distinct names (line 1)'),
    ('constraints', 'unknowns a a', ParseError, 'unknowns takes distinct names (line 1)'),
    ('constraints', 'unknowns a\nunknowns b', ParseError, 'duplicate unknowns line (line 2)'),
    ('constraints', 'unknowns a b', ParseError, 'the number of unknowns must be a perfect square'),
    ('constraints', 'unknowns a\nz', ParseError, "undeclared symbol 'z' (line 2, column 1)"),
    ('constraints', 'unknowns a\na/0', ParseError, "unexpected trailing '/' (line 2, column 2)"),
    # the denominator's column, as identity files report it
    ('constraints', 'unknowns a\n1/0*a', ParseError, 'zero denominator (line 2, column 3)'),
    ('constraints', 'unknowns a\n1 $', ParseError, "unexpected character '$' (line 2, column 3)"),
    ('constraints', 'unknowns a\nparams p\np*a^', ParseError, 'expected an integer exponent (line 3, column 5)'),
    # appended, so that the ids of the rows above keep their numbers
    ('algebra', 'dim 33', ParseError, 'dim may not exceed 32 (line 1, column 5)'),
    ('algebra', 'dim 100000', ParseError, 'dim may not exceed 32 (line 1, column 5)'),
    # constraint documents read params as the other two formats do
    ('constraints', 'unknowns a1 a2 b1 b2\nparams a1\na1', ParseError, 'unknowns and parameters overlap (line 2)'),
    ('constraints', 'unknowns a1 a2 b1 b2\nparams lam\na1*lam - 1\nparams mu\nb2 - mu', ParseError, 'duplicate params line (line 4)'),
    ('constraints', 'unknowns a\nparams 9x', ParseError, "bad parameter name '9x' (line 2)"),
    ('constraints', 'unknowns a\nparams lam lam', ParseError, 'duplicate parameter name (line 2)'),
    ('constraints', 'unknowns a1 a1x 1b b2', ParseError, "bad unknown name '1b' (line 1)"),
    # a params line after the basis is checked against it too
    ('algebra', H + 'params e1', ParseError, 'basis labels and parameters overlap (line 3)'),
    # NESTING_LIMIT counts the side itself, so 31 brackets still parse; the
    # 32nd opens the 33rd expression, read from the next column
    ('identity', '(' * 32 + 'x*y' + ')' * 32 + ' = 0', ParseError, 'expressions nested more than 32 deep (column 33)'),
    ('identity', 'x*y = ' + 'A(' * 250 + 'y*x' + ')' * 250, ParseError, 'expressions nested more than 32 deep (column 71)'),
    ('suite', 'deep : ' + '{x,y,' * 40 + 'z' + '}' * 40 + ' = 0', ParseError, 'expressions nested more than 32 deep (line 1, column 164)'),
]


@pytest.mark.parametrize(
    "reader, text, error, message", CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)]
)
def test_error_text(reader, text, error, message):
    with pytest.raises(error) as info:
        READERS[reader](text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_the_largest_dim_parses():
    labels = " ".join(f"e{i + 1}" for i in range(DIM_LIMIT))
    assert parse_algebra(f"dim {DIM_LIMIT}\nbasis {labels}\n").dim == DIM_LIMIT == 32


def test_nesting_up_to_the_limit_parses_and_every_built_in_suite_is_far_below_it():
    deepest = "(" * (NESTING_LIMIT - 1) + "x*y" + ")" * (NESTING_LIMIT - 1)
    assert parse_identity(f"{deepest} = -y*x").variables == ("x", "y")
    assert parse_identity("x*y = " + "A(" * (NESTING_LIMIT - 1) + "y*x" + ")" * (NESTING_LIMIT - 1))

    def depth(node):
        kids = [getattr(node, f) for f in ("arg", "left", "right", "first", "second", "third", "body") if hasattr(node, f)]
        kids += list(getattr(node, "terms", ()))
        return 1 + max(map(depth, kids), default=0)

    deepest_built_in = max(depth(side) for suite in SUITES.values() for i in suite.identities for side in (i.lhs, i.rhs))
    assert deepest_built_in <= 6 < NESTING_LIMIT


def test_every_reader_is_covered():
    assert {c[0] for c in CASES} == set(READERS)
