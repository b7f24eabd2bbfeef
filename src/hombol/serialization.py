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
from .errors import ParseError, parse_int, refuse_bad_basis, refuse_bad_params, refuse_bad_unknowns, refuse_undeclared
from .morphisms import ConstraintSystem
from .scalars import _from_terms, content_lines, format_terms, parse_scalar

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


def _header(key, words, params, basis=()):
    """The header lines of every document format: '<key> <words>', then the
    sorted params and the basis, each only when it has names.  The objects
    hold the rules on names; a dim of 0 or over DIM_LIMIT, which bounds
    documents only, is refused with the parser's message for it."""
    if key == "dim" and not 0 < len(basis) <= DIM_LIMIT:
        raise ParseError(f"dim may not exceed {DIM_LIMIT}" if basis else "dim takes one positive integer")
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
        if key not in ("dim", "params", "basis"):
            return False
        if getattr(self, key) is not None:
            raise ParseError(f"duplicate {key} line", line=lineno)
        if key == "dim":
            if len(words) != 2 or not words[1].isdecimal():
                raise ParseError("dim takes one positive integer", line=lineno)
            column = line.index(words[1], len(key)) + 1
            self.dim = parse_int(words[1], line=lineno, column=column)
            if self.dim < 1:
                raise ParseError("dim takes one positive integer", line=lineno)
            if self.dim > DIM_LIMIT:
                raise ParseError(f"dim may not exceed {DIM_LIMIT}", line=lineno, column=column)
        elif key == "params":
            refuse_bad_params(words[1:], self.basis or (), "basis labels", lineno)
            self.params = tuple(words[1:])
        else:
            if self.dim is None:
                raise ParseError("dim must come before basis", line=lineno)
            refuse_bad_basis(words[1:], self.dim, lineno)
            refuse_bad_params(self.params or (), words[1:], "basis labels", lineno)
            self.basis = tuple(words[1:])
        return True

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
        # a basis factor taken out of distinct monomials leaves distinct
        # monomials, so each coordinate's terms go into its map unmerged
        coords = {}
        for mono, coeff in poly.terms():
            hits = [(name, e) for name, e in mono if name in self.basis]
            if len(hits) != 1 or hits[0][1] != 1:
                raise ParseError("right-hand side must be a linear combination of basis vectors", line=lineno)
            rest = tuple(f for f in mono if f[0] not in self.basis)
            coords.setdefault(self.basis.index(hits[0][0]), {})[rest] = coeff
        return Vector._of({i: _from_terms(terms) for i, terms in sorted(coords.items())}, self.dim)

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
    params = set(params or ()) | m.variables()
    refuse_bad_basis(basis, m.dim)
    refuse_bad_params(sorted(params), basis, "basis labels")
    lines = _header("dim", [str(m.dim)], params, basis)
    return "\n".join(lines + _alpha_lines(m, basis)) + "\n"


def parse_constraints(text):
    unknowns = params = None
    equations = []
    for lineno, line in content_lines(text):
        words = line.split()
        if words[0] == "unknowns":
            if unknowns is not None:
                raise ParseError("duplicate unknowns line", line=lineno)
            refuse_bad_unknowns(words[1:], lineno)
            unknowns = tuple(words[1:])
            continue
        if unknowns is None:
            raise ParseError("unknowns must come first", line=lineno)
        if words[0] == "params":
            if params is not None:
                raise ParseError("duplicate params line", line=lineno)
            refuse_bad_params(words[1:], unknowns, "unknowns", lineno)
            params = tuple(words[1:])
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
