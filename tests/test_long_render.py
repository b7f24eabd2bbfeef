"""Long polynomials render byte for byte as they did before the single-term
product path and the per-call coefficient renderings.

``crosscheck HB_A2 --n 13`` carries twist entries of 8,192 terms, built by
products with a single-term side and rendered with a few coefficients
repeated thousands of times.  The digests below are of the output of the
general product accumulation and the per-term renderer, recorded before
either changed (the last one before the distinct-coefficient scaling, the
single-name shift and the single rendering of a matching row); CI pins the
``--n 16`` outputs the same way.
"""

import hashlib

import pytest

from hombol.algebra import Vector
from hombol.cli import main
from hombol.scalars import parse_scalar
from hombol.serialization import format_vector


@pytest.mark.parametrize(
    "flag, digest",
    [
        ("--a=1/8", "8c0f37f0429b579b761cb6eb9ed96921087d5f43a1a8675f02263f268ceb60b9"),
        ("--lambda=3/7", "292b206a636aef81513175143803ebf65b70dabc5dc8b919db7d64b45e8a8691"),
        # lambda and a bound together, b free: both long quoted entries carry
        # a Fraction; recorded before the distinct-coefficient scaling, the
        # single-name shift and the single rendering of a matching row
        ("--lambda=3/7 --a=1/8", "41197e6ed1aa5ee84d8b860f1de4d13b2205288dab72584428aab4081b52197e"),
    ],
)
def test_order_13_crosscheck_output_is_pinned(capsys, flag, digest):
    assert main(["crosscheck", "HB_A2", "--n", "13", *flag.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# coefficients 1, -1, 1/8, -1/8, 3 and -3/7, with constant terms 1 and -1,
# in polynomial and in constant coordinates
MIXED = Vector(
    tuple(
        map(
            parse_scalar,
            (
                "a - b + 1/8*a*b - 1/8*b^2 + 3*a^2*b - 3/7*a^3 + 1",
                "-a^2 + 1/8*b - 3*b^3 - 3/7*a*b - 1",
                "-1",
                "1/8",
                "-3/7",
                "3",
                "1",
                "-1/8",
            ),
        )
    )
)


def test_mixed_coefficients_render_as_pinned():
    assert str(MIXED) == (
        "(3*a^2*b - 3/7*a^3 + 1/8*a*b - 1/8*b^2 + a - b + 1, "
        "-3*b^3 - 3/7*a*b - a^2 + 1/8*b - 1, -1, 1/8, -3/7, 3, 1, -1/8)"
    )
    assert format_vector(MIXED, tuple(f"e{i}" for i in range(1, 9))) == (
        "3*a^2*b*e1 - 3/7*a^3*e1 + 1/8*a*b*e1 - 1/8*b^2*e1 + a*e1 - b*e1 + e1"
        " - 3*b^3*e2 - 3/7*a*b*e2 - a^2*e2 + 1/8*b*e2 - e2"
        " - e3 + 1/8*e4 - 3/7*e5 + 3*e6 + e7 - 1/8*e8"
    )
