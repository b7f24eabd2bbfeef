"""Multilinear identity DSL: parse, validate, and check identities on an algebra.

Grammar (whitespace-insensitive)::

    identity := expr '=' expr
    expr     := ['-'] term (('+'|'-') term)*
    term     := rational | [rational ['*']] product
    product  := factor ['*' factor]
    factor   := name                          free variable
              | '{' expr ',' expr ',' expr '}'  ternary product
              | 'A' ['^' int] '(' expr ')'      twist map power (A is reserved)
              | 'cyc' '(' v ',' v ',' v ';' expr ')'  cyclic sum over three variables
              | '(' expr ')'

The binary product is written 'a*b' and is not associative, so a chain
'a*b*c' is rejected: parenthesize.  A bare rational term must be 0.  A
rational prefix scales the following product, e.g. '1/3 {x,y,z}'.

Every identity must be multilinear: each additive term on each side uses
each free variable of the identity exactly once.  That is what licenses
checking on basis tuples only, and it is enforced, not assumed.

Checking substitutes basis vectors for the free variables in lexicographic
index order and compares both sides with exact arithmetic; with symbolic
parameters in the structure constants, Pass means identically zero
polynomials.  A suite may fix a twist exponent e, reinterpreting A as the
e-th power of the ambient twist.

One evaluator does all evaluation: each node evaluates once to a sparse table
of its nonzero values on basis tuples, each value itself a sparse vector, a
dict {coordinate: nonzero value} that the algebra's kernels take and
return.  A basis leaf is {i: 1} and a ``ScalarMul`` coefficient scales by
its native number, so where the structure constants are ints the tables
are built in int arithmetic.  ``check_identity`` tabulates the sides on
blocks of tuples and compares them key by key (both are canonical, so dict
equality is exact), building a Vector only for the residual it reports;
``tabulate`` wraps a table's values as Vectors (the Malcev bridge takes its
ternary cells from it), and ``evaluate`` uses the dicts of the caller's
vectors as the leaves.

Each identity is compiled once, when it is made, into a plan (``_compile``):
every node is interned modulo the names of its variables as a step over
their positions, each operand placed at the positions its variables take.
So terms that differ only in the names of their variables, such as (x*y)*z,
(y*z)*x and (z*x)*y, are one step, a ``cyc`` is its body under three rotated
placements, and the evaluator memoizes a step's table with its positions'
domains: each is evaluated once.

``check_identity`` evaluates few basis tuples per symmetry orbit, the least
among them (``_Orbits``).  Two kinds of symmetry make the orbits.
``_symmetries`` expands lhs - rhs algebra-free (``_expand``) and finds each
swap of two variables p < q that maps it to plus or minus itself modulo skew
products of the kinds whose cells the algebra makes skew
(``HomAlgebra._skew_kinds``), formally when there are none; it sorts the
first two slots of every such product, with a sign.  The products are
multilinear, so they are skew on all vectors.  And the algebra's
signed-permutation automorphisms that commute with the twist
(``HomAlgebra._symmetry``) permute the basis indices of a tuple.  The
outermost products of each side and the comparison of the sides take only
the tuples least under the automorphisms whose indices rise along the swaps,
less those that a swap of sign -1 fixes: a superset of the orbits' least
tuples.  Where the automorphisms make the orbits, each block of tuples builds
its tables only on the indices that its kept tuples use; the verdict, the
failing tuple and its residual stay those of a check of every tuple.
``evaluate`` and ``tabulate`` skip nothing.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import SYMMETRY_BUDGET, Vector, _add, _scale, tensor
from .errors import DimensionMismatch, MultilinearityError, ParseError, refuse_bad_names
from .scalars import TokenReader, _number, content_lines, token_pattern

__all__ = [
    "Var",
    "MapApp",
    "Binary",
    "Ternary",
    "ScalarMul",
    "Sum",
    "CyclicSum",
    "Identity",
    "IdentitySuite",
    "Counterexample",
    "SuiteReport",
    "parse_identity",
    "parse_suite",
    "format_node",
    "evaluate",
    "tabulate",
    "check_identity",
    "check_suite",
    "SUITES",
]

RESERVED = ("A", "cyc")

# the deepest nesting of expressions (in brackets, A(...) or cyc(...)) an
# identity may have: parsing it and each recursive walk of its nodes
# (_compile, _expand, format_node, the evaluator) take a few Python frames
# per level, and this keeps them far below the recursion limit
NESTING_LIMIT = 32


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class MapApp:
    power: int
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Ternary:
    first: "Node"
    second: "Node"
    third: "Node"


@dataclass(frozen=True)
class ScalarMul:
    coeff: Fraction
    arg: "Node"


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class CyclicSum:
    names: tuple
    body: "Node"


Node = (Var, MapApp, Binary, Ternary, ScalarMul, Sum, CyclicSum)


@dataclass(frozen=True)
class Identity:
    name: str
    lhs: "Node"
    rhs: "Node"
    variables: tuple = field(init=False)  # free variables, in order of first appearance
    plan: tuple = field(init=False, repr=False, compare=False)  # (steps, (step, names) of lhs, of rhs)

    def __post_init__(self):
        steps, ids = [], {}
        sides = _compile(self.lhs, steps, ids), _compile(self.rhs, steps, ids)
        object.__setattr__(self, "variables", tuple(dict.fromkeys(sides[0][1] + sides[1][1])))
        object.__setattr__(self, "plan", (tuple(steps), *sides))


@dataclass(frozen=True)
class IdentitySuite:
    name: str
    identities: tuple


@dataclass(frozen=True)
class Counterexample:
    identity: str
    variables: tuple
    indices: tuple
    residual: Vector

    def assignment(self, basis):
        """The failing basis tuple as 'x=e1, y=e2'."""
        return ", ".join(f"{v}={basis[i]}" for v, i in zip(self.variables, self.indices))

    def describe(self, basis):
        return f"{self.identity} fails at ({self.assignment(basis)})"


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    twist_exponent: int
    results: tuple  # (identity name, None | Counterexample)

    @property
    def passed(self):
        return all(r is None for _, r in self.results)

    @property
    def failures(self):
        return tuple(r for _, r in self.results if r is not None)


# ---------------------------------------------------------------------------
# parsing

class _Reader(TokenReader):
    pattern = token_pattern("{}(),;*^+=/-")
    depth = 0  # the expressions open at the cursor

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self):
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise ParseError(f"expressions nested more than {NESTING_LIMIT} deep", column=self.peek()[2])
        terms = []
        while True:
            term = _scaled(Fraction(self.sign()), self.term())
            if term is not None:
                terms.append(term)
            if not self.at_op("+", "-"):
                break
        self.depth -= 1
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    # term := rational | [rational ['*']] product ; returns None for a 0 term
    def term(self):
        kind, _, col = self.peek()
        coeff = None
        if kind == "num":
            coeff = self.rational()
            if self.at_op("*"):
                self.take()
            if not self._starts_factor():
                if coeff == 0:
                    return None
                raise ParseError("a bare rational term must be 0", column=col)
        node = self.product()
        if coeff is not None:
            node = _scaled(coeff, node)
        return node

    def _starts_factor(self):
        return self.peek()[0] == "name" or self.at_op("{", "(")

    # product := factor ['*' factor] ; a third chained factor is ambiguous
    def product(self):
        node = self.factor()
        if self.at_op("*"):
            self.take()
            right = self.factor()
            node = Binary(node, right)
            if self.at_op("*"):
                _, _, col = self.peek()
                raise ParseError(
                    "ambiguous product chain: the binary operation is not associative, parenthesize",
                    column=col,
                )
        return node

    def factor(self):
        kind, value, col = self.take()
        if kind == "name":
            if value == "A":
                power = 1
                if self.at_op("^"):
                    self.take()
                    power = self.expect_number("an integer power of A")
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return MapApp(power, arg)
            if value == "cyc":
                self.expect("(")
                names = []
                for pos in range(3):
                    k2, v2, c2 = self.take()
                    if k2 != "name" or v2 in RESERVED:
                        raise ParseError("cyc binds three plain variable names", column=c2)
                    names.append(v2)
                    self.expect("," if pos < 2 else ";")
                if len(set(names)) != 3:
                    raise ParseError("cyc needs three distinct variables", column=col)
                body = self.expr()
                self.expect(")")
                return CyclicSum(tuple(names), body)
            return Var(value)
        if kind == "op" and value == "{":
            first = self.expr()
            self.expect(",")
            second = self.expr()
            self.expect(",")
            third = self.expr()
            self.expect("}")
            return Ternary(first, second, third)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            f"expected a variable, product, or sum, got {value!r}" if value else "unexpected end of input",
            column=col,
        )


def _scaled(coeff, node):
    if node is None:
        return None
    if coeff == 1:
        return node
    if isinstance(node, ScalarMul):
        return _scaled(coeff * node.coeff, node.arg)
    return ScalarMul(coeff, node)


def parse_identity(text, name="identity"):
    """Parse 'lhs = rhs', validate multilinearity, and return an Identity."""
    reader = _Reader(text)
    lhs = reader.expr()
    reader.expect("=")
    rhs = reader.expr()
    reader.expect_end()
    ident = Identity(name=name, lhs=lhs, rhs=rhs)
    _validate_multilinear(ident)
    return ident


def parse_suite(text, name="custom"):
    """Parse a suite file: one 'name : identity' per line, '#' comments allowed."""
    identities = []
    seen = set()
    for lineno, line in content_lines(text):
        if ":" not in line:
            raise ParseError("expected 'name : identity'", line=lineno)
        label, body = line.split(":", 1)
        label = label.strip()
        refuse_bad_names((label,), "identity name", lineno)
        if label in seen:
            raise ParseError(f"duplicate identity name {label!r}", line=lineno)
        seen.add(label)
        try:
            identities.append(parse_identity(body, name=label))
        except ParseError as exc:
            raise exc.located(lineno, line.index(":") + 1) from None
        except MultilinearityError as exc:
            raise MultilinearityError(f"{exc} (line {lineno})") from exc
    return IdentitySuite(name=name, identities=tuple(identities))


def _children(node):
    if isinstance(node, (MapApp, ScalarMul)):
        return (node.arg,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Ternary):
        return (node.first, node.second, node.third)
    if isinstance(node, CyclicSum):
        return (node.body,)
    return node.terms if isinstance(node, Sum) else ()


# ---------------------------------------------------------------------------
# pretty-printing (used by validation errors and reports)


def format_node(node):
    if isinstance(node, Var):
        return node.name
    if isinstance(node, MapApp):
        inner = format_node(node.arg)
        return f"A({inner})" if node.power == 1 else f"A^{node.power}({inner})"
    if isinstance(node, Binary):
        return f"{_fmt_operand(node.left)}*{_fmt_operand(node.right)}"
    if isinstance(node, Ternary):
        return "{%s,%s,%s}" % (format_node(node.first), format_node(node.second), format_node(node.third))
    if isinstance(node, ScalarMul):
        return f"{node.coeff} {_fmt_operand(node.arg)}"
    if isinstance(node, Sum):
        if not node.terms:
            return "0"
        return " + ".join(format_node(t) for t in node.terms)
    if isinstance(node, CyclicSum):
        return f"cyc({node.names[0]},{node.names[1]},{node.names[2]}; {format_node(node.body)})"
    raise TypeError(f"not an identity node: {node!r}")


def _fmt_operand(node):
    if isinstance(node, (Binary, Sum, ScalarMul)):
        return f"({format_node(node)})"
    return format_node(node)


# ---------------------------------------------------------------------------
# multilinearity validation


def _varcounts(node):
    """Variable-usage counts for a node, or None when the node is identically zero.

    Raises MultilinearityError when a nested sum's terms disagree, since such
    an expression cannot be multilinear in any variable assignment.
    """
    if isinstance(node, Var):
        return {node.name: 1}
    if isinstance(node, (MapApp, ScalarMul)):
        return _varcounts(node.arg)
    if isinstance(node, (Binary, Ternary)):
        total = {}
        for part in _children(node):
            counts = _varcounts(part)
            if counts is None:
                return None  # a zero operand makes the whole product zero
            for v, c in counts.items():
                total[v] = total.get(v, 0) + c
        return total
    if isinstance(node, Sum):
        common = None
        for term in node.terms:
            counts = _varcounts(term)
            if counts is None:
                continue
            if common is None:
                common = counts
            elif counts != common:
                raise MultilinearityError(
                    f"terms of '{format_node(node)}' use different variable sets"
                )
        return common
    if isinstance(node, CyclicSum):
        counts = _varcounts(node.body)
        if counts is None:
            return None
        for name in node.names:
            if counts.get(name, 0) != 1:
                raise MultilinearityError(
                    f"cyc variable {name!r} must appear exactly once in '{format_node(node.body)}'"
                )
        return counts
    raise TypeError(f"not an identity node: {node!r}")


def _flatten(node):
    if isinstance(node, Sum):
        out = []
        for t in node.terms:
            out.extend(_flatten(t))
        return out
    return [node]


def _validate_multilinear(ident):
    expected = set(ident.variables)
    for side, label in ((ident.lhs, "left"), (ident.rhs, "right")):
        for term in _flatten(side):
            counts = _varcounts(term)
            if counts is None:
                continue
            for v in sorted(expected):
                c = counts.get(v, 0)
                if c != 1:
                    how = "is missing from" if c == 0 else f"appears {c} times in"
                    raise MultilinearityError(
                        f"identity {ident.name!r} is not multilinear: variable {v!r} "
                        f"{how} the {label}-side term '{format_node(term)}'"
                    )


# ---------------------------------------------------------------------------
# symmetry: the variable swaps that fix lhs - rhs up to sign


def _expand(node):
    """The node as a sum of signed monomials, algebra-free: a Counter from
    bracketed monomials to Fractions.  A monomial is a variable name,
    ('A', power, monomial), or (kind, monomial, ...) for a 'binary' or
    'ternary' product."""
    if isinstance(node, Var):
        return Counter({node.name: Fraction(1)})
    if isinstance(node, ScalarMul):
        return Counter({m: node.coeff * c for m, c in _expand(node.arg).items()})
    if isinstance(node, MapApp):
        return Counter({("A", node.power, m): c for m, c in _expand(node.arg).items()})
    if isinstance(node, (Binary, Ternary)):
        out = Counter({(type(node).__name__.lower(),): Fraction(1)})
        for part in _children(node):
            out = Counter({m + (p,): c * d for m, c in out.items() for p, d in _expand(part).items()})
        return out
    out = Counter()
    if isinstance(node, Sum):
        for term in node.terms:
            out.update(_expand(term))
    else:
        a, b, c = node.names
        for turn in ({}, {a: b, b: c, c: a}, {a: c, b: a, c: b}):
            out.update({_normal(m, (), turn)[1]: k for m, k in _expand(node.body).items()})
    return out


def _normal(mono, kinds, rename):
    """(sign, monomial): the monomial with each variable t renamed
    rename.get(t, t), and the first two slots of every product of the given
    kinds in sorted order, the sign counting the swaps; where those products
    are skew, the renamed monomial is the sign times the result.  A tag or a
    power is never renamed."""
    if isinstance(mono, str):
        return 1, rename.get(mono, mono)
    sign, parts = 1, list(mono)
    for pos, part in enumerate(parts[1:], 1):
        if not isinstance(part, int):
            s, parts[pos] = _normal(part, kinds, rename)
            sign *= s
    if parts[0] in kinds and repr(parts[2]) < repr(parts[1]):
        parts[1], parts[2], sign = parts[2], parts[1], -sign
    return sign, tuple(parts)


@functools.cache
def _symmetries(identity, kinds):
    """The transpositions (p, q, sign), p < q, of the identity's variables
    that map lhs - rhs to sign * (lhs - rhs) over the expansion, modulo skew
    products of the given kinds (formally when there are none).  The normal
    form of ``_normal`` is canonical, so a swap that holds modulo fewer
    kinds holds modulo these too."""
    names = identity.variables
    diff = _expand(identity.lhs)
    diff.subtract(_expand(identity.rhs))

    def reduced(rename):
        out = Counter()
        for mono, c in diff.items():
            sign, normal = _normal(mono, kinds, rename)
            out[normal] += sign * c
        return {m: c for m, c in out.items() if c}

    before = reduced({})
    negated = {m: -c for m, c in before.items()}
    found = []
    for p, q in itertools.combinations(range(len(names)), 2):
        after = reduced({names[p]: names[q], names[q]: names[p]})
        sign = 1 if after == before else -1 if after == negated else 0
        if sign:
            found.append((p, q, sign))
    return tuple(found)


# ---------------------------------------------------------------------------
# evaluation


def _compile(node, steps, ids):
    """(step, names): the node interned into the plan ``steps`` modulo the
    names of its variables, and its free variables in order of appearance.
    A step is (node class, payload, operands) over the positions of its
    variables, and an operand (step, positions) places the operand's
    variables at those positions of the node; ``ids`` numbers the steps.  So
    nodes that differ only in their variables' names, such as (x*y)*z,
    (y*z)*x and (z*x)*y, are one step, and a ``cyc`` is the ``Sum`` of its
    body under three placements, in which the body's variable t stands for
    the outer turn(t)."""
    if isinstance(node, Var):
        step, names = (Var, None, ()), (node.name,)
    elif isinstance(node, Node):
        parts = [_compile(part, steps, ids) for part in _children(node)]
        own = node.names if isinstance(node, CyclicSum) else ()
        names = tuple(dict.fromkeys(own + sum((n for _, n in parts), ())))
        turns = [dict(zip(own, own[k:] + own[:k])) for k in range(3)] if own else [{}]
        placed = tuple((part, tuple(names.index(turn.get(t, t)) for t in n)) for turn in turns for part, n in parts)
        payload = node.power if isinstance(node, MapApp) else None
        if isinstance(node, ScalarMul) and (payload := _number(node.coeff)) is None:
            raise TypeError(f"a ScalarMul coefficient must be an int or a Fraction, got {node.coeff!r}")
        step = (Sum if own else type(node), payload, placed)
    else:
        raise TypeError(f"not an identity node: {node!r}")
    if step not in ids:
        ids[step] = len(steps)
        steps.append(step)
    return ids[step], names


class _Tables:
    """The one evaluator of identity nodes over an algebra: it walks a plan
    of ``_compile`` by step.  A step's table maps the leaf indices at its
    positions to its nonzero value there, a non-empty sparse vector; ``dom``
    holds the indices each position ranges over.  A check passes its
    ``_Orbits`` and, as ``scope``, the position of each of the identity's
    variables: then the outermost products, those over all of them, take
    only the keys that the orbits keep.  So a table holds every nonzero value
    at those keys but may hold or miss the others, and the tables of the
    products' operands hold every nonzero value on the domains.  Tables are
    memoized on (step, domains, scope)."""

    def __init__(self, alg, twist_exponent, steps, leaves=None, orbits=None):
        if twist_exponent < 0:
            raise ValueError("twist exponent must be nonnegative")
        self.alg = alg
        self.steps = steps
        self.leaves = [{i: 1} for i in range(alg.dim)] if leaves is None else leaves
        self.map_power = functools.cache(lambda k: alg.twist.power(twist_exponent * k))
        self.orbits = orbits
        self.memo = {}

    def table(self, step, dom, scope=None):
        key = (step, dom, scope)
        if (table := self.memo.get(key)) is None:
            table = self.memo[key] = self._tabulate(step, dom, scope)
        return table

    def _tabulate(self, step, dom, scope):
        tag, payload, operands = self.steps[step]
        here = tuple(range(len(dom)))
        if tag is Var:
            out = {(i,): self.leaves[i] for i in dom[0]}
        elif tag is MapApp:
            f = self.map_power(payload)._apply
            out = {key: f(v) for key, v in self.table(operands[0][0], dom, scope).items()}
        elif tag is ScalarMul:
            out = {key: _scale(v, payload) for key, v in self.table(operands[0][0], dom, scope).items()}
        elif tag is Sum:
            out = {}
            for part, pos in operands:
                # a term without a scope variable holds no outermost product
                inner = None if scope is None or len(pos) < len(scope) else tuple(map(pos.index, scope))
                for key, v in _rekey(pos, self.table(part, tuple(map(dom.__getitem__, pos)), inner), here, dom).items():
                    out[key] = _add(out[key], v) if key in out else v
        else:
            parts = [self.table(part, tuple(map(dom.__getitem__, pos))) for part, pos in operands]
            mul = self.alg._binary if tag is Binary else self.alg._ternary
            src = sum((pos for _, pos in operands), ())
            keep = self.orbits.keep(tuple(map(src.index, scope))) if scope is not None else None
            rows = [((), ())]  # (joined key, values) over all operands but the last
            for t in parts[:-1]:
                rows = [(key + k, values + (v,)) for key, values in rows for k, v in t.items()]
            last = parts[-1].items()
            out = {key + k: mul(*values, v) for key, values in rows for k, v in last if keep is None or keep(key + k)}
            out = _rekey(src, out, here, dom)
        return {key: v for key, v in out.items() if v}


class _Orbits:
    """The basis tuples at which a check tabulates the outermost products
    and compares the sides: those least under the algebra's symmetries whose
    indices rise along the identity's swaps, less those that a swap of sign
    -1 fixes.  They hold the least tuple of each orbit of the group G that
    the symmetries and the swaps generate, and may hold more of an orbit.

    Let g e_i = s_i e_pi(i) be a signed permutation that is an automorphism
    commuting with the twist (``HomAlgebra._symmetry``).  The sides are
    built from the products and twist powers, so the residual at pi(t) is
    plus or minus g of the residual at t.  A swap of the variables p < q
    that maps lhs - rhs to sign * (lhs - rhs), formally or modulo products
    that this algebra's cells make skew (``_symmetries``), maps the residual
    at t to sign times the one at the swapped tuple, and a tuple that a swap
    of sign -1 fixes has a zero residual.  So failing tuples are unions of
    orbits; the least failing tuple is the least of its orbit, so it is kept,
    and it is the first failing tuple kept.  This is isomorph-free generation
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).

    The swaps join the variable positions into components, and G permutes
    the positions within each component.  When every pi is the identity, a
    tuple is least in its orbit iff its indices rise weakly along each
    component, so ``keep`` compares neighbours, and the two of a swap of
    sign -1 strictly.  Otherwise ``_least`` lists the kept tuples, for any
    number of variables; past SYMMETRY_BUDGET steps the check keeps to the
    swaps alone."""

    def __init__(self, alg, identity):
        m = self.m = len(identity.variables)
        self.dim = alg.dim
        swaps = [(p, q, sign < 0) for p, q, sign in _symmetries(identity, alg._skew_kinds())]
        part = {p: (p,) for p in range(m)}
        for p, q, _ in swaps:
            joined = tuple(sorted(set(part[p] + part[q])))
            part.update(dict.fromkeys(joined, joined))
        components = sorted({c for c in part.values() if len(c) > 1})
        # (a, b, strict): t[a] <= t[b], or t[a] < t[b] when strict
        checks = {(a, b): False for c in components for a, b in zip(c, c[1:])}
        checks.update(((p, q), True) for p, q, strict in swaps if strict)
        self.checks = tuple((a, b, strict) for (a, b), strict in checks.items())
        perms = alg._symmetry()
        self.reps = _least(perms, m, self.dim, self.checks) if len(perms) > 1 else None
        self.keep = functools.cache(self._keep)

    def _keep(self, order):
        """The test of a key at which position p of the identity's variables
        takes the index key[order[p]], or None to keep every key."""
        if self.reps is not None:
            reps = self.reps
            if order == tuple(range(self.m)):
                return reps.__contains__
            pick = operator.itemgetter(*order)
            return lambda key: pick(key) in reps
        checks = [(order[a], order[b], strict) for a, b, strict in self.checks]
        if not checks:
            return None
        if len(checks) == 1:  # the common case, tested once per product taken
            (i, j, strict), = checks
            return (lambda key: key[i] < key[j]) if strict else (lambda key: key[i] <= key[j])
        return lambda key: all(key[i] < key[j] if strict else key[i] <= key[j] for i, j, strict in checks)

    def domains(self, prefix):
        """The indices that each position ranges over in the block of tuples
        that start with the pinned indices prefix, or None when no kept tuple
        does.  With listed representatives, a position ranges over the
        indices it takes in the block's kept tuples, so a check builds every
        table of the block, inner ones included, only on that box."""
        prefix = prefix[: self.m]
        if self.reps is not None:
            block = [r for r in self.reps if r[: len(prefix)] == prefix]
            return [tuple(sorted(set(column))) for column in zip(*block)] if block else None
        top = prefix + (self.dim - 1,) * (self.m - len(prefix))  # the largest index at each position
        if not all(prefix[a] + strict <= top[b] for a, b, strict in self.checks if a < len(prefix)):
            return None
        return [range(i, i + 1) for i in prefix] + [range(self.dim)] * (self.m - len(prefix))


def _least(perms, m, dim, checks):
    """The m-tuples over range(dim) that pass the checks of ``_Orbits`` and
    are least in their orbits under the index permutations perms; None past
    SYMMETRY_BUDGET steps.  They hold the least tuple of every orbit under
    perms and the position permutations, less those that a swap of sign -1
    fixes, and may hold other tuples of an orbit too.

    They are built level by level: a prefix extended by i stays least iff
    no perm that fixes the prefix sends i lower."""
    floors = [[] for _ in range(m)]  # the checks that bound each position from below
    for a, b, strict in checks:
        floors[b].append((a, strict))
    work = 0
    level = [((), perms)]  # (prefix, the perms that fix it)
    for k in range(m):
        work += dim * sum(len(fixing) for _, fixing in level)
        if work > SYMMETRY_BUDGET:
            return None
        level = [
            (prefix + (i,), [g for g in fixing if g[i] == i])
            for prefix, fixing in level
            for i in range(max((prefix[a] + strict for a, strict in floors[k]), default=0), dim)
            if all(g[i] >= i for g in fixing)
        ]
    return frozenset(t for t, _ in level)


def _rekey(src, table, dst, dom):
    """A table over the variables ``src`` re-keyed over ``dst``, which holds
    them all, or the table itself where they are equal.  A variable missing
    from ``src`` takes every index of its domain; one that ``src`` repeats
    (only outside a multilinear identity) keeps the keys where its repeats agree."""
    if src == dst:
        return table
    full = src + tuple(n for n in dst if n not in src)
    pos = [full.index(n) for n in dst]
    pick = operator.itemgetter(*pos) if len(pos) > 1 else lambda key: tuple(key[p] for p in pos)
    twins = [(full.index(n), p) for p, n in enumerate(full) if full.index(n) != p]
    fills = list(itertools.product(*(dom[n] for n in full[len(src):])))
    agree = (key for key in table if all(key[p] == key[q] for p, q in twins)) if twins else table
    return {pick(key + fill): table[key] for key in agree for fill in fills}


def _planned(node, given):
    """(steps, step, names): the node compiled into a plan of its own, refused
    when a free variable is missing from ``given``, naming the first in order
    of appearance."""
    steps = []
    step, names = _compile(node, steps, {})
    for name in names:
        if name not in given:
            raise ValueError(f"no value given for variable {name!r}")
    return steps, step, names


def evaluate(node, alg, env, twist_exponent=1):
    """Evaluate a node on arbitrary vectors; env maps variable name -> Vector."""
    steps, step, names = _planned(node, env)
    if any(v.dim != alg.dim for v in env.values()):
        raise DimensionMismatch("operands do not match the algebra dimension")
    dom = {name: (r,) for r, name in enumerate(env)}
    tables = _Tables(alg, twist_exponent, steps, [v._d for v in env.values()])
    table = tables.table(step, tuple(map(dom.__getitem__, names)))
    return Vector._of(next(iter(table.values()), {}), alg.dim)


def tabulate(node, alg, variables, twist_exponent=1):
    """The values of a node on every assignment of basis vectors to
    ``variables``: nested tuples of Vectors, indexed [i][j]... in the order
    of ``variables``."""
    dom = dict.fromkeys(variables, range(alg.dim))
    steps, step, names = _planned(node, dom)
    table = _Tables(alg, twist_exponent, steps).table(step, (range(alg.dim),) * len(names))
    table = _rekey(names, table, tuple(variables), dom)
    return tensor(alg.dim, len(variables), lambda idx: Vector._of(table.get(idx, {}), alg.dim))


def check_identity(alg, identity, twist_exponent=1):
    """Check one identity over all basis assignments.

    Returns None on Pass, else the Counterexample at the lexicographically
    smallest failing index tuple.  With symbolic structure constants Pass
    means the residual is the zero polynomial at every tuple.

    Only tuples least under the algebra's automorphisms, a superset of the
    least tuples of the symmetry orbits, are evaluated (``_Orbits``): the
    outermost products and the comparison of the sides skip every other
    key, and where the orbits list their kept tuples, each block builds its
    tables, inner ones included, only on the indices that its kept tuples
    use (``_Orbits.domains``).  Failing tuples are unions of orbits, so the
    verdict, the tuple and the residual are those of a check of every tuple.
    """
    names = identity.variables
    steps, *sides = identity.plan
    # each side's scope: the position of each of the identity's variables in it
    scopes = [tuple(map(side.index, names)) if len(side) == len(names) else None for _, side in sides]
    orbits = _Orbits(alg, identity)
    tables = _Tables(alg, twist_exponent, steps, orbits=orbits)
    keep = orbits.keep(tuple(range(len(names)))) or (lambda key: True)
    # pin leading variables to 0 for nested blocks that grow dim-fold from the
    # first tuple, so that a failure there is found early, then pin the first
    # variable to each index in turn; a tuple may be checked twice
    for prefix in [(0,) * m for m in range(len(names), 1, -1)] + [(i,) for i in range(alg.dim)]:
        box = orbits.domains(prefix)
        if box is None:
            continue  # no tuple of the block is kept
        dom = dict(zip(names, box))
        lhs, rhs = (
            _rekey(side, tables.table(step, tuple(map(dom.__getitem__, side)), scope), names, dom)
            for (step, side), scope in zip(sides, scopes)
        )
        if lhs != rhs:
            bad = [key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key) and keep(key)]
            if bad:
                key = min(bad)
                residual = Vector._of(lhs.get(key, {}), alg.dim) - Vector._of(rhs.get(key, {}), alg.dim)
                return Counterexample(identity=identity.name, variables=names, indices=key, residual=residual)
        if len(prefix) == 1:  # keep the tables over full domains, which later blocks may share
            tables.memo = {e: t for e, t in tables.memo.items() if all(len(d) == alg.dim for d in e[1])}
    return None


def check_suite(alg, suite, twist_exponent=1):
    """Check every identity of a suite, reading A as the given power of the
    twist."""
    if isinstance(suite, str):
        try:
            suite = SUITES[suite.lower()]
        except KeyError:
            raise KeyError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}") from None
    results = []
    for ident in suite.identities:
        results.append((ident.name, check_identity(alg, ident, twist_exponent=twist_exponent)))
    return SuiteReport(suite=suite.name, twist_exponent=twist_exponent, results=tuple(results))


# ---------------------------------------------------------------------------
# built-in suites, stored as DSL text and compiled at import

_BUILTIN_TEXT = {
    # Bol algebra axioms (twist plays no role)
    "bol": """
        skew_binary        : x*y = -y*x
        skew_ternary       : {x,y,z} = -{y,x,z}
        ternary_jacobi     : cyc(x,y,z; {x,y,z}) = 0
        binary_derivation  : {x,y,u*v} = {x,y,u}*v + u*{x,y,v} + {u,v,x*y} - (u*v)*(x*y)
        ternary_derivation : {x,y,{u,v,w}} = {{x,y,u},v,w} + {u,{x,y,v},w} + {u,v,{x,y,w}}
    """,
    # twisted Bol axioms; A is the algebra twist
    "hom_bol": """
        twist_respects_binary      : A(x*y) = A(x)*A(y)
        twist_respects_ternary     : A({x,y,z}) = {A(x),A(y),A(z)}
        skew_binary                : x*y = -y*x
        skew_ternary               : {x,y,z} = -{y,x,z}
        ternary_jacobi             : cyc(x,y,z; {x,y,z}) = 0
        twisted_binary_derivation  : {A(x),A(y),u*v} = {x,y,u}*A^2(v) + A^2(u)*{x,y,v} + {A(u),A(v),x*y} - (A(u)*A(v))*(A(x)*A(y))
        twisted_ternary_derivation : {A^2(x),A^2(y),{u,v,w}} = {{x,y,u},A^2(v),A^2(w)} + {A^2(u),{x,y,v},A^2(w)} + {A^2(u),A^2(v),{x,y,w}}
    """,
    # skew binary product whose twisted Jacobian is the ternary alternator
    "hom_akivis": """
        skew_binary    : x*y = -y*x
        akivis_balance : cyc(x,y,z; (x*y)*A(z)) = cyc(x,y,z; {x,y,z}) - cyc(x,y,z; {y,x,z})
    """,
    "hom_lie": """
        skew_binary : x*y = -y*x
        hom_jacobi  : cyc(x,y,z; (x*y)*A(z)) = 0
    """,
    # ternary part only; from a twisted Bol algebra use twist exponent 2
    "hom_lie_triple": """
        skew_ternary   : {x,y,z} = -{y,x,z}
        ternary_jacobi : cyc(x,y,z; {x,y,z}) = 0
        hom_nambu      : {A(x),A(y),{u,v,w}} = {{x,y,u},A(v),A(w)} + {A(u),{x,y,v},A(w)} + {A(u),A(v),{x,y,w}}
    """,
    # flexibility {x,y,x} = 0, shipped as its characteristic-zero polarization
    "hom_flex": """
        flex_polarized : {x,y,z} + {z,y,x} = 0
    """,
    # fully alternating ternary product, via the two generating transposition skews
    "hom_alt": """
        alt_first_pair : {x,y,z} = -{y,x,z}
        alt_last_pair  : {x,y,z} = -{x,z,y}
    """,
    # binary Malcev law, linearized in its repeated variable so it stays
    # multilinear; J(x,y,z) is written out as (x*y)*z + (y*z)*x + (z*x)*y
    "malcev": """
        skew_binary        : x*y = -y*x
        malcev_linearized  : (x*y)*(w*z) + (y*(w*z))*x + ((w*z)*x)*y + (w*y)*(x*z) + (y*(x*z))*w + ((x*z)*w)*y = ((x*y)*z)*w + ((y*z)*x)*w + ((z*x)*y)*w + ((w*y)*z)*x + ((y*z)*w)*x + ((z*w)*y)*x
    """,
}

SUITES = {name: parse_suite(text, name=name) for name, text in _BUILTIN_TEXT.items()}
