"""Line-oriented text formats for algebras, maps, and constraint systems.

An algebra document::

    dim 2
    params lambda
    basis e1 e2
    complete skew-binary
    complete skew-ternary
    binary e1 e2 = -e2
    ternary e1 e2 e1 = lambda*e2
    alpha e1 = e1 + a*e2

Header lines declare the dimension, the scalar parameters, and the basis
labels; parameters must be declared before use and referenced labels must be
declared (undeclared name = parse error).  The optional ``complete``
directives fill unassigned constants by skew-symmetry (in the first two slots
for the ternary product) and zero the corresponding diagonal; an explicit
assignment that contradicts a completed value is rejected.  Right-hand sides
are linear combinations of basis labels in the scalar grammar.  ``alpha``
lines give the twist columnwise; omitting the stanza means the identity.

Emission is deterministic (sorted indices, canonical scalar layout), so
emit(parse(emit(x))) == emit(x) byte for byte.

Constraint-system documents carry an ``unknowns`` header, an optional
``params`` header, and then one polynomial per line, each meaning "= 0".
"""

from __future__ import annotations

import math

from .algebra import PRODUCTS, HomAlgebra, LinearMap, Vector, tensor
from .errors import ParseError, parse_int
from .morphisms import ConstraintSystem
from .scalars import NAME, Scalar, ZERO, content_lines, format_terms, parse_scalar

__all__ = [
    "parse_algebra",
    "emit_algebra",
    "parse_map",
    "emit_map",
    "parse_constraints",
    "emit_constraints",
    "format_vector",
    "format_suite_report",
]


def format_vector(v, labels):
    """Render coordinates as the flat linear-combination grammar, e1 first."""
    return format_terms(
        (mono, coeff, (label,)) for coord, label in zip(v.coords, labels) for mono, coeff in coord.terms()
    )


def format_suite_report(report, labels=None):
    lines = [f"suite {report.suite} (twist exponent {report.twist_exponent})"]
    for name, failure in report.results:
        if failure is None:
            lines.append(f"  {name}: pass")
        else:
            if labels is None:
                assign = ", ".join(f"{v}=#{i}" for v, i in zip(failure.variables, failure.indices))
            else:
                assign = ", ".join(f"{v}={labels[i]}" for v, i in zip(failure.variables, failure.indices))
            residual = format_vector(failure.residual, labels or tuple(f"#{i}" for i in range(failure.residual.dim)))
            lines.append(f"  {name}: FAIL at ({assign}), residual {residual}")
    verdict = "pass" if report.passed else "FAIL"
    lines.append(f"  => {verdict}")
    return "\n".join(lines)


class _DocReader:
    """The one reader of algebra and map documents.

    It reads the header lines (dim, params, basis) and the assignment lines
    '<key> <label>... = <value>' for the keys of ``arity``, into
    ``cells[key][indices] = (Vector, line number)``; any other keyword goes
    to ``other(lineno, words)``, which handles it or raises.
    """

    def __init__(self, text, arity, other):
        self.dim = self.params = self.basis = None
        self.cells = {key: {} for key in arity}
        for lineno, line in content_lines(text):
            words = line.split("=", 1)[0].split()
            if not words:
                raise ParseError("missing keyword", line=lineno)
            key = words[0]
            if self.header(lineno, line, words):
                continue
            if key not in arity:
                other(lineno, words)
                continue
            if self.basis is None:
                raise ParseError("basis must be declared before assignments", line=lineno)
            if len(words) != 1 + arity[key] or "=" not in line:
                raise ParseError(f"expected '{key} {' '.join(['<label>'] * arity[key])} = <value>'", line=lineno)
            idx = tuple(self.label_index(w, lineno) for w in words[1:])
            if idx in self.cells[key]:
                raise ParseError(f"duplicate assignment for {key} {' '.join(words[1:])}", line=lineno)
            self.cells[key][idx] = (self.rhs_vector(line, lineno), lineno)
        if self.dim is None:
            raise ParseError("missing dim line")
        if self.basis is None:
            raise ParseError("missing basis line")

    def header(self, lineno, line, words):
        key = words[0]
        if key == "dim":
            if self.dim is not None:
                raise ParseError("duplicate dim line", line=lineno)
            if len(words) != 2 or not words[1].isdecimal():
                raise ParseError("dim takes one positive integer", line=lineno)
            self.dim = parse_int(words[1], line=lineno, column=line.index(words[1], len(key)) + 1)
            if self.dim < 1:
                raise ParseError("dim takes one positive integer", line=lineno)
            return True
        if key == "params":
            if self.params is not None:
                raise ParseError("duplicate params line", line=lineno)
            names = words[1:]
            for name in names:
                if not NAME.match(name):
                    raise ParseError(f"bad parameter name {name!r}", line=lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate parameter name", line=lineno)
            self.params = tuple(names)
            return True
        if key == "basis":
            if self.basis is not None:
                raise ParseError("duplicate basis line", line=lineno)
            if self.dim is None:
                raise ParseError("dim must come before basis", line=lineno)
            labels = words[1:]
            if len(labels) != self.dim or len(set(labels)) != self.dim:
                raise ParseError(f"basis needs {self.dim} distinct labels", line=lineno)
            for label in labels:
                if not NAME.match(label):
                    raise ParseError(f"bad basis label {label!r}", line=lineno)
            if self.params and set(labels) & set(self.params):
                raise ParseError("basis labels and parameters overlap", line=lineno)
            self.basis = tuple(labels)
            return True
        return False

    def label_index(self, label, lineno):
        try:
            return self.basis.index(label)
        except ValueError:
            raise ParseError(f"undeclared symbol {label!r}", line=lineno) from None

    def rhs_vector(self, line, lineno):
        """The right-hand side, a linear combination of basis labels."""
        head, _, rhs = line.partition("=")
        if not rhs.strip():
            raise ParseError("missing right-hand side", line=lineno)
        try:
            poly = parse_scalar(rhs, set(self.params or ()) | set(self.basis))
        except ParseError as exc:
            raise exc.located(lineno, len(head) + 1) from None
        coords = [ZERO] * self.dim
        for mono, coeff in poly.terms():
            hits = [(name, e) for name, e in mono if name in self.basis]
            if len(hits) != 1 or hits[0][1] != 1:
                raise ParseError("right-hand side must be a linear combination of basis vectors", line=lineno)
            i = self.basis.index(hits[0][0])
            coords[i] = coords[i] + Scalar({tuple(f for f in mono if f[0] not in self.basis): coeff})
        return Vector(coords)

    def twist(self, required):
        """The map of the alpha lines; with none, the identity unless required."""
        alpha = self.cells["alpha"]
        if not alpha and not required:
            return LinearMap.identity(self.dim)
        missing = [label for j, label in enumerate(self.basis) if (j,) not in alpha]
        if missing:
            raise ParseError(f"alpha image missing for {missing[0]!r}")
        return LinearMap.from_columns(tuple(alpha[(j,)][0].coords for j in range(self.dim)))


def parse_algebra(text):
    complete = set()

    def directive(lineno, words):
        if words[0] != "complete":
            raise ParseError(f"unknown keyword {words[0]!r}", line=lineno)
        if len(words) != 2 or words[1] not in ("skew-binary", "skew-ternary"):
            raise ParseError("complete takes skew-binary or skew-ternary", line=lineno)
        complete.add(words[1])

    doc = _DocReader(text, {**dict(PRODUCTS), "alpha": 1}, directive)
    zero = Vector.zero(doc.dim)
    products = {}
    for kind, arity in PRODUCTS:
        assigned = doc.cells[kind]
        cells = {idx: value for idx, (value, _) in assigned.items()}
        if f"skew-{kind}" in complete:
            for idx, (value, lineno) in assigned.items():
                # skew partner: the first two slots swapped
                mate = (idx[1], idx[0]) + idx[2:]
                if mate == idx:
                    if not value.is_zero():
                        raise ParseError(
                            f"conflicting assignment: {kind} product at {idx} must vanish under skew completion",
                            line=lineno,
                        )
                elif mate not in assigned:
                    cells[mate] = -value
                elif assigned[mate][0] != -value:
                    raise ParseError(
                        f"conflicting assignment: {kind} product at {mate} breaks skew symmetry",
                        line=assigned[mate][1],
                    )
        products[kind] = tensor(doc.dim, arity, lambda idx: cells.get(idx, zero).coords)
    return HomAlgebra(
        dim=doc.dim,
        basis=doc.basis,
        params=frozenset(doc.params or ()),
        twist=doc.twist(required=False),
        **products,
    )


def emit_algebra(alg):
    lines = [f"dim {alg.dim}"]
    declared = sorted(alg.all_variables())
    if declared:
        lines.append("params " + " ".join(declared))
    lines.append("basis " + " ".join(alg.basis))
    for kind, idx, coords in alg.cells():
        if any(coords):  # a Scalar is true when nonzero
            labels = " ".join(alg.basis[i] for i in idx)
            lines.append(f"{kind} {labels} = {format_vector(Vector(coords), alg.basis)}")
    if not alg.twist.is_identity():
        for j in range(alg.dim):
            lines.append(f"alpha {alg.basis[j]} = {format_vector(alg.twist.column(j), alg.basis)}")
    return "\n".join(lines) + "\n"


def _map_only(lineno, words):
    raise ParseError("map documents allow only header and alpha lines", line=lineno)


def parse_map(text):
    """Parse a map document (header plus one alpha line per basis vector).

    Returns (LinearMap, basis labels, declared parameter names).
    """
    doc = _DocReader(text, {"alpha": 1}, _map_only)
    return doc.twist(required=True), doc.basis, frozenset(doc.params or ())


def emit_map(m, basis, params=None):
    lines = [f"dim {m.dim}"]
    declared = sorted(set(params or ()) | m.variables())
    if declared:
        lines.append("params " + " ".join(declared))
    lines.append("basis " + " ".join(basis))
    for j in range(m.dim):
        lines.append(f"alpha {basis[j]} = {format_vector(m.column(j), basis)}")
    return "\n".join(lines) + "\n"


def parse_constraints(text):
    unknowns = None
    params = ()
    equations = []
    for lineno, line in content_lines(text):
        words = line.split()
        if words[0] == "unknowns":
            if unknowns is not None:
                raise ParseError("duplicate unknowns line", line=lineno)
            if len(words) < 2 or len(set(words[1:])) != len(words) - 1:
                raise ParseError("unknowns takes distinct names", line=lineno)
            unknowns = tuple(words[1:])
            continue
        if words[0] == "params":
            if unknowns is None:
                raise ParseError("unknowns must come first", line=lineno)
            params = tuple(words[1:])
            continue
        if unknowns is None:
            raise ParseError("unknowns must come first", line=lineno)
        try:
            equations.append(parse_scalar(line, set(unknowns) | set(params)))
        except ParseError as exc:
            raise exc.located(lineno) from None
    if unknowns is None:
        raise ParseError("missing unknowns line")
    dim = math.isqrt(len(unknowns))
    if dim * dim != len(unknowns):
        raise ParseError("the number of unknowns must be a perfect square")
    return ConstraintSystem(
        dim=dim, unknowns=unknowns, params=frozenset(params), equations=tuple(equations)
    )


def emit_constraints(system):
    lines = ["unknowns " + " ".join(system.unknowns)]
    if system.params:
        lines.append("params " + " ".join(sorted(system.params)))
    for eq in system.equations:
        lines.append(str(eq))
    return "\n".join(lines) + "\n"
