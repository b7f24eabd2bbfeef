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

One memoizing evaluator does all evaluation: ``check_identity`` runs it over
basis tuples, ``evaluate`` on the caller's vectors, and ``tabulate`` returns
its value table over basis tuples (the constructions build tensors with it).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Vector, tensor
from .errors import MultilinearityError, ParseError
from .scalars import NAME, TokenReader, content_lines, token_pattern

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
    variables: tuple  # free variables, in order of first appearance


@dataclass(frozen=True)
class IdentitySuite:
    name: str
    identities: tuple
    twist_exponent: int = 1


@dataclass(frozen=True)
class Counterexample:
    identity: str
    variables: tuple
    indices: tuple
    residual: Vector

    def describe(self, basis=None):
        if basis is None:
            assign = ", ".join(f"{v}={i}" for v, i in zip(self.variables, self.indices))
        else:
            assign = ", ".join(f"{v}={basis[i]}" for v, i in zip(self.variables, self.indices))
        return f"{self.identity} fails at ({assign})"


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

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self):
        terms = []
        while True:
            term = _scaled(Fraction(self.sign()), self.term())
            if term is not None:
                terms.append(term)
            if not self.at_op("+", "-"):
                break
        if not terms:
            return Sum(())
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

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
    variables = []
    for node in (lhs, rhs):
        for v in _appearance_order(node):
            if v not in variables:
                variables.append(v)
    ident = Identity(name=name, lhs=lhs, rhs=rhs, variables=tuple(variables))
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
        if not NAME.match(label):
            raise ParseError(f"bad identity name {label!r}", line=lineno)
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


def _appearance_order(node):
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, MapApp):
        yield from _appearance_order(node.arg)
    elif isinstance(node, ScalarMul):
        yield from _appearance_order(node.arg)
    elif isinstance(node, Binary):
        yield from _appearance_order(node.left)
        yield from _appearance_order(node.right)
    elif isinstance(node, Ternary):
        yield from _appearance_order(node.first)
        yield from _appearance_order(node.second)
        yield from _appearance_order(node.third)
    elif isinstance(node, Sum):
        for t in node.terms:
            yield from _appearance_order(t)
    elif isinstance(node, CyclicSum):
        yield from node.names
        yield from _appearance_order(node.body)


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
        parts = (node.left, node.right) if isinstance(node, Binary) else (node.first, node.second, node.third)
        total = {}
        for part in parts:
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
# evaluation


class _Evaluator:
    """The one evaluator of identity nodes over an algebra.

    env maps variable name -> index into ``leaves``, the vectors the
    variables stand for: the basis by default.  A subexpression's value is
    memoized on the indices of its own free variables, which makes the
    five-variable identities cheap under full enumeration, and twist powers
    are computed once.
    """

    def __init__(self, alg, twist_exponent=1, leaves=None):
        if twist_exponent < 0:
            raise ValueError("twist exponent must be nonnegative")
        self.alg = alg
        self.exponent = twist_exponent
        self.leaves = [alg.basis_vector(i) for i in range(alg.dim)] if leaves is None else leaves
        self._powers = {}
        self._memo = {}

    def map_power(self, k):
        m = self._powers.get(k)
        if m is None:
            m = self.alg.twist.power(self.exponent * k)
            self._powers[k] = m
        return m

    def node_memo(self, node):
        """(key getter, memo) for a node: the getter reads the indices of the
        node's free variables from an env, the memo maps them to values."""
        names = tuple(dict.fromkeys(_appearance_order(node)))
        got = (operator.itemgetter(*names) if names else _no_vars, {})
        self._memo[id(node)] = got
        return got

    def eval(self, node, env):
        if isinstance(node, Var):
            return self.leaves[env[node.name]]
        key_of, memo = self._memo.get(id(node)) or self.node_memo(node)
        key = key_of(env)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, MapApp):
            value = self.map_power(node.power).apply(self.eval(node.arg, env))
        elif isinstance(node, Binary):
            value = self.alg.eval_binary(self.eval(node.left, env), self.eval(node.right, env))
        elif isinstance(node, Ternary):
            value = self.alg.eval_ternary(
                self.eval(node.first, env), self.eval(node.second, env), self.eval(node.third, env)
            )
        elif isinstance(node, ScalarMul):
            value = self.eval(node.arg, env).scale(node.coeff)
        elif isinstance(node, Sum):
            value = Vector.zero(self.alg.dim)
            for t in node.terms:
                value = value + self.eval(t, env)
        elif isinstance(node, CyclicSum):
            a, b, c = node.names
            rotations = (
                env,
                {**env, a: env[b], b: env[c], c: env[a]},
                {**env, a: env[c], b: env[a], c: env[b]},
            )
            value = Vector.zero(self.alg.dim)
            for rotated in rotations:
                value = value + self.eval(node.body, rotated)
        else:
            raise TypeError(f"not an identity node: {node!r}")
        memo[key] = value
        return value


def _no_vars(env):
    return ()


def evaluate(node, alg, env, twist_exponent=1):
    """Evaluate a node on arbitrary vectors; env maps variable name -> Vector."""
    ev = _Evaluator(alg, twist_exponent, list(env.values()))
    return ev.eval(node, {name: i for i, name in enumerate(env)})


def tabulate(node, alg, variables, twist_exponent=1):
    """The values of a node on every assignment of basis vectors to
    ``variables``: nested tuples of Vectors, indexed [i][j]... in the order
    of ``variables``."""
    ev = _Evaluator(alg, twist_exponent)
    return tensor(alg.dim, len(variables), lambda idx: ev.eval(node, dict(zip(variables, idx))))


def check_identity(alg, identity, twist_exponent=1):
    """Check one identity over all basis assignments.

    Returns None on Pass, else the Counterexample at the lexicographically
    smallest failing index tuple.  With symbolic structure constants Pass
    means the residual is the zero polynomial at every tuple.
    """
    ev = _Evaluator(alg, twist_exponent)
    names = identity.variables
    for indices in itertools.product(range(alg.dim), repeat=len(names)):
        env = dict(zip(names, indices))
        residual = ev.eval(identity.lhs, env) - ev.eval(identity.rhs, env)
        if not residual.is_zero():
            return Counterexample(
                identity=identity.name, variables=names, indices=indices, residual=residual
            )
    return None


def check_suite(alg, suite, twist_exponent=None):
    """Check every identity of a suite; the suite's twist exponent applies
    unless overridden."""
    if isinstance(suite, str):
        try:
            suite = SUITES[suite.lower()]
        except KeyError:
            raise KeyError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}") from None
    e = suite.twist_exponent if twist_exponent is None else twist_exponent
    results = []
    for ident in suite.identities:
        results.append((ident.name, check_identity(alg, ident, twist_exponent=e)))
    return SuiteReport(suite=suite.name, twist_exponent=e, results=tuple(results))


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
