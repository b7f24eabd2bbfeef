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

from dataclasses import dataclass, field

from .algebra import PRODUCTS, HomAlgebra, LinearMap, Vector, tensor
from .constructions import nth_derived, yau_twist
from .scalars import ONE, Scalar, ZERO
from .serialization import format_vector

__all__ = [
    "CatalogEntry",
    "DiscrepancyReport",
    "DiscrepancyRow",
    "cross_check",
    "entries",
    "get",
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


def _bol(t121, t122):
    """Two-dimensional Bol algebra with the shared binary product e1*e2 = -e2
    and the two defining ternary cells, skew-completed."""
    defining = {(0, 1): _vec(ZERO, -ONE), (0, 1, 0): t121, (0, 1, 1): t122}
    cells = {**defining, **{(1, 0) + idx[2:]: -v for idx, v in defining.items()}}
    zero = Vector.zero(2)
    products = {kind: tensor(2, arity, lambda idx: cells.get(idx, zero).coords) for kind, arity in PRODUCTS}
    params = frozenset().union(*(c.variables() for cell in defining.values() for c in cell.coords))
    return HomAlgebra(dim=2, basis=_BASIS, params=params, twist=LinearMap.identity(2), **products)


def _beta_shear_scale(a, b):
    # columns are images of e1, e2
    return LinearMap.from_columns(((ONE, a), (ZERO, b)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: tuple
    required: tuple
    description: str
    build: object = field(repr=False, compare=False)  # (lam, a, b, sign) -> HomAlgebra


_ENTRIES = (
    CatalogEntry(
        "A1",
        (),
        (),
        "rigid type: [e1,e2,e1] = e1, [e1,e2,e2] = -e2; "
        "its only self-morphisms are 0 and the identity",
        lambda lam, a, b, sign: _bol(_vec(ONE, ZERO), _vec(ZERO, -ONE)),
    ),
    CatalogEntry(
        "A2",
        ("lambda",),
        (),
        "family with [e1,e2,e1] = lambda*e2 and [e1,e2,e2] = 0",
        lambda lam, a, b, sign: _bol(_vec(ZERO, _scalar_or(lam, "lambda")), Vector.zero(2)),
    ),
    CatalogEntry(
        "A3",
        ("lambda", "sign"),
        ("sign",),
        "family with [e1,e2,e1] = lambda*e2 and [e1,e2,e2] = sign*e1",
        lambda lam, a, b, sign: _bol(
            _vec(ZERO, _scalar_or(lam, "lambda")), _vec(_coerce_sign(sign, "A3"), ZERO)
        ),
    ),
    CatalogEntry(
        "HB_A2",
        ("lambda", "a", "b"),
        (),
        "A2 twisted along beta(e1) = e1 + a*e2, beta(e2) = b*e2",
        lambda lam, a, b, sign: yau_twist(
            get("A2", lam), _beta_shear_scale(_scalar_or(a, "a"), _scalar_or(b, "b"))
        ),
    ),
    # HB_A3's twisting family preserves the binary product but scales the
    # constant [e1,e2,e2] by b^2, so it is an endomorphism only at b = +1 or
    # -1; the entry is built with the endomorphism check disabled so the
    # axiom suites and cross_check can surface the consequences for free b.
    CatalogEntry(
        "HB_A3",
        ("lambda", "b", "sign"),
        ("sign",),
        "A3 twisted along beta(e1) = e1, beta(e2) = b*e2 "
        "(an endomorphism only at b = +1 or -1; built unchecked)",
        lambda lam, a, b, sign: yau_twist(
            get("A3", lam, sign=sign), _beta_shear_scale(ZERO, _scalar_or(b, "b")), check=False
        ),
    ),
)


def names():
    return tuple(entry.name for entry in _ENTRIES)


def entries():
    return _ENTRIES


def get(name, lam=None, a=None, b=None, sign=None):
    """Build the named entry.

    A parameter left as None stays symbolic (``lambda``, ``a``, ``b``); a
    parameter the entry does not have is ignored.  A3 and HB_A3 require an
    explicit sign ('+' or '-').
    """
    for entry in _ENTRIES:
        if entry.name == name:
            return entry.build(lam, a, b, sign)
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
        Vector(alg.binary[0][1]),
        Vector(alg.ternary[0][1][0]),
        Vector(alg.ternary[0][1][1]),
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
    if name in ("A1", "A2", "A3"):
        # untwisted entries are quoted as fixed points of the derived sequence
        return _constructed_rows(get(name, lam=lam, sign=sign))
    a = _scalar_or(a, "a") if name == "HB_A2" else ZERO
    b = _scalar_or(b, "b")
    if name == "HB_A2":
        t122 = Vector.zero(2)
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
    alg = get(name, lam=lam, a=a, b=b, sign=sign)
    if n < 0:
        raise ValueError("derived order must be nonnegative")
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
