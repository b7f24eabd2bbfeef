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

from .algebra import PRODUCTS, HomAlgebra, LinearMap, Vector
from .errors import ParseError, parse_int, refuse_overlap, refuse_undeclared
from .morphisms import ConstraintSystem
from .scalars import NAME, Scalar, content_lines, format_terms, parse_scalar

__all__ = [
    "parse_algebra",
    "emit_algebra",
    "parse_map",
    "emit_map",
    "parse_constraints",
    "emit_constraints",
    "format_vector",
    "format_suite_report",
    "DIM_LIMIT",
]

# the largest dim a document may declare: an algebra holds dim^4 ternary
# coordinates, about a million at dim 32
DIM_LIMIT = 32


def format_vector(v, labels):
    """Render coordinates as the flat linear-combination grammar, e1 first."""
    return format_terms(
        (mono, coeff, (label,)) for coord, label in zip(v.coords, labels) for mono, coeff in coord.terms()
    )


def format_suite_report(report, labels):
    lines = [f"suite {report.suite} (twist exponent {report.twist_exponent})"]
    for name, failure in report.results:
        if failure is None:
            lines.append(f"  {name}: pass")
        else:
            residual = format_vector(failure.residual, labels)
            lines.append(f"  {name}: FAIL at ({failure.assignment(labels)}), residual {residual}")
    verdict = "pass" if report.passed else "FAIL"
    lines.append(f"  => {verdict}")
    return "\n".join(lines)


def _require_names(names, what, lineno=None):
    for name in names:
        if not NAME.match(name):
            raise ParseError(f"bad {what} {name!r}", line=lineno)


def _read_params(words, lineno, declared, taken, taken_what):
    """The names of a params line in every document format; a second line, a
    name that is not an identifier, given twice or among ``taken`` is refused."""
    if declared is not None:
        raise ParseError("duplicate params line", line=lineno)
    names = words[1:]
    _require_names(names, "parameter name", lineno)
    if len(set(names)) != len(names):
        raise ParseError("duplicate parameter name", line=lineno)
    refuse_overlap(taken, names, taken_what, lineno)
    return tuple(names)


def _header(key, words, params, basis=()):
    """The header lines of every document format: '<key> <words>', then the
    sorted params and the basis, each only when it has names.  What the
    parsers refuse in a header, a dim over DIM_LIMIT, a bad basis or bad
    unknowns, a name that is not an identifier and parameters that repeat a
    basis label, is refused with their messages."""
    if key == "dim":
        if int(words[0]) > DIM_LIMIT:
            raise ParseError(f"dim may not exceed {DIM_LIMIT}")
        if len(basis) != int(words[0]) or len(set(basis)) != len(basis):
            raise ParseError(f"basis needs {words[0]} distinct labels")
    elif not words or len(set(words)) != len(words):
        raise ParseError("unknowns takes distinct names")
    else:
        _require_names(words, "unknown name")
    _require_names(basis, "basis label")
    _require_names(params, "parameter name")
    refuse_overlap(basis, params, "basis labels")
    return [" ".join((k, *w)) for k, w in ((key, words), ("params", sorted(params)), ("basis", basis)) if w]


def _alpha_lines(m, basis):
    return [f"alpha {basis[j]} = {format_vector(m.column(j), basis)}" for j in range(m.dim)]


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
            column = line.index(words[1], len(key)) + 1
            self.dim = parse_int(words[1], line=lineno, column=column)
            if self.dim < 1:
                raise ParseError("dim takes one positive integer", line=lineno)
            if self.dim > DIM_LIMIT:
                raise ParseError(f"dim may not exceed {DIM_LIMIT}", line=lineno, column=column)
            return True
        if key == "params":
            self.params = _read_params(words, lineno, self.params, self.basis or (), "basis labels")
            return True
        if key == "basis":
            if self.basis is not None:
                raise ParseError("duplicate basis line", line=lineno)
            if self.dim is None:
                raise ParseError("dim must come before basis", line=lineno)
            labels = words[1:]
            if len(labels) != self.dim or len(set(labels)) != self.dim:
                raise ParseError(f"basis needs {self.dim} distinct labels", line=lineno)
            _require_names(labels, "basis label", lineno)
            refuse_overlap(labels, self.params or (), "basis labels", lineno)
            self.basis = tuple(labels)
            return True
        return False

    def label_index(self, label, lineno):
        refuse_undeclared((label,), self.basis, line=lineno)
        return self.basis.index(label)

    def rhs_vector(self, line, lineno):
        """The right-hand side, a linear combination of basis labels."""
        head, _, rhs = line.partition("=")
        if not rhs.strip():
            raise ParseError("missing right-hand side", line=lineno)
        try:
            poly = parse_scalar(rhs, set(self.params or ()) | set(self.basis))
        except ParseError as exc:
            raise exc.located(lineno, len(head) + 1) from None
        coords = {}
        for mono, coeff in poly.terms():
            hits = [(name, e) for name, e in mono if name in self.basis]
            if len(hits) != 1 or hits[0][1] != 1:
                raise ParseError("right-hand side must be a linear combination of basis vectors", line=lineno)
            i = self.basis.index(hits[0][0])
            rest = tuple(f for f in mono if f[0] not in self.basis)
            term = Scalar({rest: coeff}) if rest else coeff
            coords[i] = coords[i] + term if i in coords else term
        return Vector._of({i: c for i, c in sorted(coords.items()) if c}, self.dim)

    def twist(self, required):
        """The map of the alpha lines; with none, the identity unless required."""
        alpha = self.cells["alpha"]
        if not alpha and not required:
            return LinearMap.identity(self.dim)
        missing = [label for j, label in enumerate(self.basis) if (j,) not in alpha]
        if missing:
            raise ParseError(f"alpha image missing for {missing[0]!r}")
        return LinearMap._of(tuple(alpha[(j,)][0]._d for j in range(self.dim)))


def parse_algebra(text):
    complete = set()

    def directive(lineno, words):
        if words[0] != "complete":
            raise ParseError(f"unknown keyword {words[0]!r}", line=lineno)
        if len(words) != 2 or words[1] not in ("skew-binary", "skew-ternary"):
            raise ParseError("complete takes skew-binary or skew-ternary", line=lineno)
        complete.add(words[1])

    doc = _DocReader(text, {**dict(PRODUCTS), "alpha": 1}, directive)
    products = {}
    for kind, _ in PRODUCTS:
        assigned = doc.cells[kind]
        cells = products[kind] = {idx: value._d for idx, (value, _) in assigned.items()}
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
                    cells[mate] = (-value)._d
                elif assigned[mate][0] != -value:
                    raise ParseError(
                        f"conflicting assignment: {kind} product at {mate} breaks skew symmetry",
                        line=assigned[mate][1],
                    )
    return HomAlgebra._of(doc.dim, doc.basis, frozenset(doc.params or ()), products, doc.twist(required=False))


def emit_algebra(alg):
    lines = _header("dim", [str(alg.dim)], alg.all_variables(), alg.basis)
    for kind, idx, cell in alg._cells():
        if cell:
            labels = " ".join(alg.basis[i] for i in idx)
            lines.append(f"{kind} {labels} = {format_vector(Vector._of(cell, alg.dim), alg.basis)}")
    if not alg.twist.is_identity():
        lines += _alpha_lines(alg.twist, alg.basis)
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
    lines = _header("dim", [str(m.dim)], set(params or ()) | m.variables(), basis)
    return "\n".join(lines + _alpha_lines(m, basis)) + "\n"


def parse_constraints(text):
    unknowns = params = None
    equations = []
    for lineno, line in content_lines(text):
        words = line.split()
        if words[0] == "unknowns":
            if unknowns is not None:
                raise ParseError("duplicate unknowns line", line=lineno)
            if len(words) < 2 or len(set(words[1:])) != len(words) - 1:
                raise ParseError("unknowns takes distinct names", line=lineno)
            _require_names(words[1:], "unknown name", lineno)
            unknowns = tuple(words[1:])
            continue
        if unknowns is None:
            raise ParseError("unknowns must come first", line=lineno)
        if words[0] == "params":
            params = _read_params(words, lineno, params, unknowns, "unknowns")
            continue
        try:
            equations.append(parse_scalar(line, set(unknowns) | set(params or ())))
        except ParseError as exc:
            raise exc.located(lineno) from None
    if unknowns is None:
        raise ParseError("missing unknowns line")
    dim = math.isqrt(len(unknowns))
    if dim * dim != len(unknowns):
        raise ParseError("the number of unknowns must be a perfect square")
    return ConstraintSystem(
        dim=dim, unknowns=unknowns, params=frozenset(params or ()), equations=tuple(equations)
    )


def emit_constraints(system):
    lines = _header("unknowns", system.unknowns, system.params)
    return "\n".join(lines + [str(eq) for eq in system.equations]) + "\n"
