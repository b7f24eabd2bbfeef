"""Catalog of the two-dimensional examples and their twisted families.

Up to isomorphism there are three nontrivial two-dimensional real Bol
algebras, named here A1, A2, A3.  All share the binary product
e1*e2 = -e2 and differ in the ternary part:

    A1:  [e1,e2,e1] = e1,         [e1,e2,e2] = -e2
    A2:  [e1,e2,e1] = lambda*e2,  [e1,e2,e2] = 0
    A3:  [e1,e2,e1] = lambda*e2,  [e1,e2,e2] = sign*e1   (sign = +1 or -1)

HB_A2 and HB_A3 are the twisted families obtained from A2 and A3 by the
binary/ternary twisting construction along the maps

    HB_A2:  beta(e1) = e1 + a*e2,  beta(e2) = b*e2
    HB_A3:  beta(e1) = e1,         beta(e2) = b*e2

Each entry also carries the closed forms its structure constants and
derived sequences are traditionally quoted with.  Some of those quoted
forms disagree with what the definition-faithful constructors produce;
``cross_check`` compares the two sides constant by constant and reports
every mismatch instead of silently adopting either value.  The
constructor output is always the shipped value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import PRODUCTS, HomAlgebra, LinearMap, Vector, tensor
from .constructions import nth_derived, yau_twist
from .scalars import ONE, Scalar, ZERO
from .serialization import format_vector

__all__ = [
    "CatalogEntry",
    "DiscrepancyReport",
    "DiscrepancyRow",
    "build",
    "cross_check",
    "describe",
    "entries",
    "get",
    "get_twisted",
    "names",
]

_BASIS = ("e1", "e2")


def _scalar_or(value, name):
    if value is None:
        return Scalar.parameter(name)
    if isinstance(value, Scalar):
        return value
    return Scalar.rational(value)


def _coerce_sign(sign, entry):
    if sign in (1, "+"):
        return ONE
    if sign in (-1, "-"):
        return -ONE
    if sign is None:
        raise ValueError(f"{entry} needs sign '+' or '-'")
    raise ValueError(f"bad sign {sign!r}; use '+' or '-'")


def _vec(c1, c2):
    return Vector((c1, c2))


def _bol(v12, t121, t122):
    """Two-dimensional Bol algebra from the three defining cells, skew-completed."""
    defining = {(0, 1): v12, (0, 1, 0): t121, (0, 1, 1): t122}
    cells = {**defining, **{(1, 0) + idx[2:]: -v for idx, v in defining.items()}}
    zero = Vector.zero(2)
    products = {kind: tensor(2, arity, lambda idx: cells.get(idx, zero).coords) for kind, arity in PRODUCTS}
    params = frozenset().union(*(c.variables() for cell in defining.values() for c in cell.coords))
    return HomAlgebra(dim=2, basis=_BASIS, params=params, twist=LinearMap.identity(2), **products)


def _build_a1():
    return _bol(_vec(ZERO, -ONE), _vec(ONE, ZERO), _vec(ZERO, -ONE))


def _build_a2(lam=None):
    lam = _scalar_or(lam, "lambda")
    return _bol(_vec(ZERO, -ONE), _vec(ZERO, lam), _vec(ZERO, ZERO))


def _build_a3(lam=None, sign=None):
    lam = _scalar_or(lam, "lambda")
    s = _coerce_sign(sign, "A3")
    return _bol(_vec(ZERO, -ONE), _vec(ZERO, lam), _vec(s, ZERO))


def _beta_shear_scale(a, b):
    # columns are images of e1, e2
    return LinearMap.from_columns(((ONE, a), (ZERO, b)))


def get(name, lam=None, sign=None):
    """Build one of the untwisted entries A1, A2, A3.

    lam left as None stays the symbolic parameter ``lambda``; A3 requires an
    explicit sign ('+' or '-').
    """
    if name == "A1":
        return _build_a1()
    if name == "A2":
        return _build_a2(lam)
    if name == "A3":
        return _build_a3(lam, sign)
    raise ValueError(f"unknown catalog name {name!r}; untwisted entries are A1, A2, A3")


def get_twisted(name, lam=None, a=None, b=None, sign=None):
    """Build one of the twisted entries HB_A2, HB_A3.

    Unbound parameters stay symbolic.  HB_A3's twisting family preserves the
    binary product but scales the constant [e1,e2,e2] by b^2, so it is an
    endomorphism only at b = +1 or -1; the entry is built with the
    endomorphism check disabled so the axiom suites and cross_check can
    surface the consequences for free b.
    """
    if name == "HB_A2":
        base = _build_a2(lam)
        beta = _beta_shear_scale(_scalar_or(a, "a"), _scalar_or(b, "b"))
        return yau_twist(base, beta)
    if name == "HB_A3":
        base = _build_a3(lam, sign)
        beta = _beta_shear_scale(ZERO, _scalar_or(b, "b"))
        return yau_twist(base, beta, check=False)
    raise ValueError(
        f"unknown catalog name {name!r}; twisted entries are HB_A2, HB_A3"
    )


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: tuple
    required: tuple
    description: str


_ENTRIES = (
    CatalogEntry(
        "A1",
        (),
        (),
        "rigid type: [e1,e2,e1] = e1, [e1,e2,e2] = -e2; "
        "its only self-morphisms are 0 and the identity",
    ),
    CatalogEntry(
        "A2",
        ("lambda",),
        (),
        "family with [e1,e2,e1] = lambda*e2 and [e1,e2,e2] = 0",
    ),
    CatalogEntry(
        "A3",
        ("lambda", "sign"),
        ("sign",),
        "family with [e1,e2,e1] = lambda*e2 and [e1,e2,e2] = sign*e1",
    ),
    CatalogEntry(
        "HB_A2",
        ("lambda", "a", "b"),
        (),
        "A2 twisted along beta(e1) = e1 + a*e2, beta(e2) = b*e2",
    ),
    CatalogEntry(
        "HB_A3",
        ("lambda", "b", "sign"),
        ("sign",),
        "A3 twisted along beta(e1) = e1, beta(e2) = b*e2 "
        "(an endomorphism only at b = +1 or -1; built unchecked)",
    ),
)

_BY_NAME = {entry.name: entry for entry in _ENTRIES}


def names():
    return tuple(entry.name for entry in _ENTRIES)


def entries():
    return _ENTRIES


def describe(name):
    entry = _BY_NAME.get(name)
    if entry is None:
        raise ValueError(f"unknown catalog name {name!r}; known: {', '.join(names())}")
    return entry.description


def build(name, lam=None, a=None, b=None, sign=None):
    """Uniform builder over all five entry names (CLI entry point)."""
    if name in ("A1", "A2", "A3"):
        return get(name, lam=lam, sign=sign)
    if name in ("HB_A2", "HB_A3"):
        return get_twisted(name, lam=lam, a=a, b=b, sign=sign)
    raise ValueError(f"unknown catalog name {name!r}; known: {', '.join(names())}")


# ---------------------------------------------------------------------------
# quoted closed forms and the cross-check report

_ROW_LABELS = (
    "binary e1 e2",
    "ternary e1 e2 e1",
    "ternary e1 e2 e2",
    "alpha e1",
    "alpha e2",
)


def _constructed_rows(alg):
    return (
        alg.binary_value(0, 1),
        alg.ternary_value(0, 1, 0),
        alg.ternary_value(0, 1, 1),
        alg.twist.column(0),
        alg.twist.column(1),
    )


def _geometric(b, count):
    total = ZERO
    power = ONE
    for _ in range(count):
        total = total + power
        power = power * b
    return total


def _quoted_rows(name, n, lam, a, b, sign):
    """The closed forms the entry is quoted with; n=None means the base form."""
    lam = _scalar_or(lam, "lambda")
    zero = Vector.zero(2)
    if name in ("A1", "A2", "A3"):
        # untwisted entries are quoted as fixed points of the derived sequence
        alg = build(name, lam=lam, sign=sign)
        return _constructed_rows(alg)
    a = _scalar_or(a, "a") if name == "HB_A2" else ZERO
    b = _scalar_or(b, "b")
    if name == "HB_A2":
        t122 = zero
    else:
        s = _coerce_sign(sign, name)
        t122 = _vec(-s, ZERO)  # quoted with the opposite sign of the base entry
    if n is None:
        return (
            _vec(ZERO, -b),
            _vec(ZERO, lam * b),
            t122,
            _vec(ONE, a),
            _vec(ZERO, b),
        )
    count = 2 ** n
    return (
        _vec(ZERO, -(b ** (count - 1))),
        _vec(ZERO, lam * b ** (2 * count - 1)),
        t122,
        _vec(ONE, a * _geometric(b, count)),
        _vec(ZERO, b ** count),
    )


@dataclass(frozen=True)
class DiscrepancyRow:
    label: str
    source: str
    quoted: Vector
    constructed: Vector

    @property
    def match(self):
        return self.quoted == self.constructed

    def format(self, basis=_BASIS):
        verdict = "match" if self.match else "MISMATCH"
        return (
            f"{self.label} [{self.source}]: quoted {format_vector(self.quoted, basis)}"
            f" | constructed {format_vector(self.constructed, basis)} -> {verdict}"
        )


@dataclass(frozen=True)
class DiscrepancyReport:
    entry: str
    order: int
    rows: tuple

    @property
    def mismatches(self):
        return tuple(r for r in self.rows if not r.match)

    def format(self):
        lines = [f"cross-check {self.entry}, derived order {self.order}"]
        lines.extend("  " + row.format() for row in self.rows)
        lines.append(
            f"  => {len(self.mismatches)} mismatch(es) in {len(self.rows)} row(s)"
        )
        return "\n".join(lines)


def cross_check(name, n, lam=None, a=None, b=None, sign="+"):
    """Compare the order-n derived algebra of an entry against its quoted forms.

    At n = 0 the report also carries the quoted base form of the entry, so a
    disagreement between the base closed form and the derived closed form at
    order zero shows up as two rows with different verdicts.
    """
    if name not in _BY_NAME:
        raise ValueError(f"unknown catalog name {name!r}; known: {', '.join(names())}")
    if n < 0:
        raise ValueError("derived order must be nonnegative")
    alg = build(name, lam=lam, a=a, b=b, sign=sign)
    derived = nth_derived(alg, n)
    rows = []
    if n == 0:
        quoted = _quoted_rows(name, None, lam, a, b, sign)
        built = _constructed_rows(alg)
        rows.extend(
            DiscrepancyRow(label, "quoted base form", q, c)
            for label, q, c in zip(_ROW_LABELS, quoted, built)
        )
    quoted = _quoted_rows(name, n, lam, a, b, sign)
    built = _constructed_rows(derived)
    source = f"quoted derived form, order {n}"
    rows.extend(
        DiscrepancyRow(label, source, q, c)
        for label, q, c in zip(_ROW_LABELS, quoted, built)
    )
    return DiscrepancyReport(entry=name, order=n, rows=tuple(rows))
