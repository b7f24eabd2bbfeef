"""Self-morphism constraint systems: generate, verify, and solve over grids.

A self-morphism is a matrix theta with theta(e_i * e_j) = theta(e_i) *
theta(e_j), likewise for the ternary product, and theta . alpha = alpha . theta
for the twist alpha (no condition when alpha is the identity).  Writing theta
with one unknown per entry and expanding both sides over the basis yields one
polynomial per coordinate; the system is the deduplicated list of those
polynomials, each meaning "= 0".

Solving over a grid finds every assignment of grid values to the unknowns
that satisfies the system, in lexicographic order.  It is a depth-first
search by exact elimination, not an exhaustive scan: the grid is scaled by
the lcm of its denominators to a lattice of ints, the equations are compiled
once to integer rows over it, and unknowns are bound one at a time in an
order chosen from those rows: next, the unknown that completes the most
equations.  Each equation is decided as soon as its last unknown in that
order is bound: one that is linear in that unknown gives its only value by
one exact division, and a partial assignment that fails an equation is
pruned with everything below it.  The solutions are then sorted back into
lexicographic order of the listed unknowns.

The unknowns are theta's entries, source-major and target-minor, a layout
that _theta and its inverse _entries alone spell out.  Dimension 2 names them
classically, theta(e1) = a1 e1 + a2 e2 and theta(e2) = b1 e1 + b2 e2; other
dimensions use t<src>_<tgt>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LinearMap, morphism_residuals
from .errors import PreconditionError, refuse_bad_params, refuse_bad_unknowns, refuse_undeclared
from .scalars import Scalar, ZERO, ONE, _canon, _value_of

__all__ = [
    "ConstraintSystem",
    "FailingEquation",
    "ClassificationReport",
    "unknown_names",
    "generate_constraints",
    "verify_candidate",
    "grid_search",
    "classify_2dim",
    "DEFAULT_GRID",
    "FAMILY_CANDIDATES",
]

DEFAULT_GRID = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


@dataclass(frozen=True)
class ConstraintSystem:
    dim: int
    unknowns: tuple  # one name per theta entry: source-major, target-minor
    params: frozenset  # remaining symbolic parameters of the algebra
    equations: tuple  # Scalars, each asserting "= 0"

    def __post_init__(self):
        refuse_bad_unknowns(self.unknowns)
        if len(self.unknowns) != self.dim**2:  # a document states no dim: its parser counts the unknowns
            raise ValueError(f"dim {self.dim} takes {self.dim**2} unknowns, not {len(self.unknowns)}")
        refuse_bad_params(sorted(self.params), self.unknowns, "unknowns")
        symbols = frozenset().union(*(eq.variables() for eq in self.equations))
        refuse_undeclared(sorted(symbols), {*self.unknowns, *self.params})


@dataclass(frozen=True)
class FailingEquation:
    index: int
    equation: Scalar
    residual: Scalar


def unknown_names(dim):
    if dim == 2:
        return ("a1", "a2", "b1", "b2")
    return tuple(f"t{j + 1}_{i + 1}" for j in range(dim) for i in range(dim))


def _theta(entries, n):
    """The map whose entries, source-major and target-minor, are the values
    ``entries``: entry j*n + i is the e_i coordinate of theta(e_j)."""
    return LinearMap._of(tuple({i: s for i, s in enumerate(entries[j * n:(j + 1) * n]) if s} for j in range(n)))


def _entries(theta):
    """The inverse of _theta: theta's entries, source-major, target-minor."""
    return [entry for col in zip(*theta.rows) for entry in col]


def generate_constraints(algebra):
    """The polynomial system cutting out self-morphisms of the algebra.

    Theta must intertwine both products and the twist.  The twist's
    (linear) equations theta.alpha - alpha.theta come last; for the identity
    twist they are all zero, so none joins the system.
    """
    n = algebra.dim
    names = unknown_names(n)
    refuse_bad_params(sorted(algebra.all_variables()), names, "unknowns")
    theta = _theta([Scalar.parameter(name) for name in names], n)

    equations = {}
    for _, _, residual in morphism_residuals(theta, algebra, algebra):
        for coord in residual.coords:
            if not coord.is_zero():
                equations.setdefault(coord, None)

    eqs = tuple(equations)
    params = frozenset().union(*(eq.variables() for eq in eqs)) - set(names) if eqs else frozenset()
    return ConstraintSystem(dim=n, unknowns=names, params=params, equations=eqs)


def _bindings_from(system, candidate):
    if isinstance(candidate, LinearMap):
        if candidate.dim != system.dim:
            raise ValueError("candidate dimension does not match the system")
        return dict(zip(system.unknowns, _entries(candidate)))
    given = dict(candidate)
    expected = set(system.unknowns)
    if set(given) != expected:
        missing = sorted(expected - set(given))
        extra = sorted(set(given) - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        raise ValueError("unknown-name mismatch: " + ", ".join(detail))
    for name, value in given.items():
        if _value_of(value) is None:
            raise TypeError(f"cannot bind unknown {name!r} to {value!r}")
    return given


def verify_candidate(system, candidate):
    """Substitute a candidate into every equation.

    The candidate is a LinearMap or a mapping from unknown names to scalars
    (which may themselves carry free parameters).  Returns None when every
    equation vanishes identically, else the first FailingEquation.
    """
    bindings = _bindings_from(system, candidate)
    for index, eq in enumerate(system.equations):
        residual = eq.substitute(bindings)
        if not residual.is_zero():
            return FailingEquation(index=index, equation=eq, residual=residual)
    return None


def _forces_zero(terms):
    """Whether an equation is c*y_k^e = 0, which only y_k = 0 solves."""
    return len(terms) == 1 and len(terms[0][1]) == 1


def _drop_forced_zeros(equations):
    """The equations without their terms in an unknown that some equation
    c*y_k^e = 0 forces to zero: every branch that binds y_k keeps only 0
    for it, so those terms vanish wherever they are decided.  A dropped
    term may leave another such equation, or one that vanishes and is
    dropped.  None when one is left a nonzero constant, which nothing
    solves."""
    zero = set()
    while True:
        forced = {terms[0][1][0][0] for terms in equations if _forces_zero(terms)} - zero
        if not forced:
            return equations
        zero |= forced
        kept = []
        for terms in equations:
            if not _forces_zero(terms):
                terms = tuple((c, f) for c, f in terms if not any(k in zero for k, _ in f))
                if not terms:
                    continue
                if not any(f for _, f in terms):
                    return None
            kept.append(terms)
        equations = kept


def _binding_order(supports, size):
    """The order in which to bind unknowns 0..size-1, given the set of
    unknowns of each equation: greedily, the unknown that completes the
    most equations next.  Ties go to the unknown whose pending equations
    come nearest to completion (most left with one unknown unbound, then
    two, ...), then to the first listed; an unknown in no equation comes
    after every constrained one."""
    holding = [[] for _ in range(size)]
    for e, support in enumerate(supports):
        for k in support:
            holding[k].append(e)
    unbound = [len(support) for support in supports]

    def urgency(k):
        left = [0] * size
        for e in holding[k]:
            if unbound[e]:
                left[unbound[e] - 1] += 1
        return left, -k

    order, free = [], set(range(size))
    while free:
        k = max(free, key=urgency)
        order.append(k)
        free.discard(k)
        for e in holding[k]:
            unbound[e] -= 1
    return order


def _compile(system, bindings, scale):
    """``(order, filed)``: the order to bind the unknowns in, and the
    equations with the parameters bound, over the lattice y = scale*x, filed
    by the depth of their last unknown in that order.  ``order[d]`` is the
    listed index of the unknown bound at depth d, and y_d its value.
    ``filed[d]`` lists the equations to decide once depths 0..d are bound,
    each as ``(exponents, rows)``: the ascending exponents of y_d in it, and
    its terms, each an ``(int coefficient, ((depth, exponent), ...), slot)``
    row whose factors are bound before d and whose power of y_d is
    ``exponents[slot]``.  An equation of top degree D is multiplied by
    scale^D, which turns each term of degree t into one in y times
    scale^(D - t), then by the lcm of its denominators, and then divided by
    the gcd of its coefficients, with the sign that makes its first
    coefficient positive; its zero set stays as it is, and an equation that
    only differs from another by a factor is filed once.  The parameters
    are bound term by term in int and Fraction arithmetic, and the order is
    read off these integer rows after _drop_forced_zeros, so each equation
    is expanded once.  None when some equation is a nonzero constant, or is
    left one by _drop_forced_zeros, which nothing solves.
    """
    position = {name: k for k, name in enumerate(system.unknowns)}
    normal = {}
    for eq in system.equations:
        # the terms with the parameters bound, by their ((unknown, exponent), ...)
        merged = {}
        for mono, c in eq.terms():
            for name, e in mono:
                if name not in position:
                    c *= bindings[name] ** e
            f = tuple((position[name], e) for name, e in mono if name in position)
            merged[f] = merged[f] + c if f in merged else c
        monos = [(c, f) for f, c in merged.items() if c]
        if not monos:
            continue
        if not any(f for _, f in monos):
            return None
        degrees = [sum(e for _, e in f) for _, f in monos]
        scaled = [c * scale ** (max(degrees) - t) for (c, _), t in zip(monos, degrees)]
        clear = math.lcm(*(c.denominator for c in scaled))
        ints = [c.numerator * (clear // c.denominator) for c in scaled]
        common = math.gcd(*ints) * (1 if ints[0] > 0 else -1)
        normal.setdefault(tuple((c // common, f) for c, (_, f) in zip(ints, monos)))
    equations = _drop_forced_zeros(list(normal))
    if equations is None:
        return None
    order = _binding_order([{k for _, f in terms for k, _ in f} for terms in equations], len(system.unknowns))
    depth = {k: d for d, k in enumerate(order)}
    filed = [[] for _ in order]
    for terms in equations:
        monos = [(c, {depth[k]: e for k, e in f}) for c, f in terms]
        last = max(d for _, f in monos for d in f)
        exponents = sorted({f.get(last, 0) for _, f in monos})
        rows = tuple(
            (c, tuple(sorted((d, e) for d, e in f.items() if d != last)), exponents.index(f.get(last, 0)))
            for c, f in monos
        )
        filed[last].append((tuple(exponents), rows))
    return order, filed


def _candidates(equations, y, lattice, on_lattice):
    """The lattice values of the next unknown that solve ``equations`` with
    ``y``'s bound prefix, ascending.  Each equation's coefficients are
    evaluated once: a nonzero constant prunes, a linear one fixes the only
    candidate by one exact division (every linear one must give the same
    root, on the lattice), and the rest are tested term by term, so a sparse
    equation of high degree costs what its terms cost."""
    root, tests = None, []
    for exponents, rows in equations:
        q = [0] * len(exponents)
        for c, factors, slot in rows:
            for k, p in factors:
                c *= y[k] ** p
            q[slot] += c
        while q and not q[-1]:
            q.pop()
        if not q:
            continue
        top = exponents[len(q) - 1]
        if not top:
            return ()
        if top == 1:
            # q[-1] * y + q[0] = 0, where q[0] is there only when the
            # exponents start (0, 1)
            r, rem = divmod(-q[0] if len(q) == 2 else 0, q[-1])
            if rem or r not in on_lattice or root not in (None, r):
                return ()
            root = r
        else:
            tests.append((exponents, q))
    values = lattice if root is None else (root,)
    if not tests:
        return values
    return [v for v in values if all(sum(c * v**e for e, c in zip(exponents, q)) == 0 for exponents, q in tests)]


def _exact(value, what):
    """value as a Fraction; it must be an int or a Fraction already."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def grid_search(system, values, parameter_bindings=None):
    """All unknown assignments over a finite value grid solving the system.

    Every algebra parameter must be bound first, and every binding and grid
    value must be an int or a Fraction (a float is a TypeError).  The search
    is depth first and exact, over integers: with L the lcm of the grid's
    denominators, it solves for y = L*x on the lattice of the scaled grid,
    with each equation cleared of denominators (see _compile).  It binds
    first the unknowns that complete the most equations (_binding_order),
    drops the terms of an unknown that an equation c*y^e = 0 forces to zero,
    and files each equation at its last unknown in that order.  At each
    depth it evaluates the coefficients of the filed equations once for the
    bound prefix: a nonzero constant prunes the branch, an equation linear
    in the unknown there fixes its only candidate by one exact division and
    a lattice test, and only the surviving values are tested against the
    other equations.  Far fewer than ``len(grid) ** len(unknowns)`` points
    are visited; the answer is still every grid point that solves the
    system.  The solutions are collected as lattice tuples, mapped back to
    ``system.unknowns`` and sorted; the lattice ascends with the grid, so
    they come back in lexicographic order of the unknown vector over the
    ascending grid, the order of an exhaustive scan.  The zero map, when it
    solves the system, is simply one of them.
    """
    bindings = {name: _exact(v, f"parameter {name!r}") for name, v in (parameter_bindings or {}).items()}
    unbound = sorted(system.params - set(bindings))
    if unbound:
        raise ValueError(f"unbound parameter {unbound[0]!r}")
    grid = sorted({_exact(v, "a grid value") for v in values})
    scale = math.lcm(*(v.denominator for v in grid))
    lattice = [v.numerator * (scale // v.denominator) for v in grid]
    on_lattice = set(lattice)
    compiled = _compile(system, bindings, scale)
    if compiled is None:
        return []
    order, filed = compiled

    solutions = []
    last = len(order) - 1
    y = [None] * (last + 1)
    at = sorted(range(last + 1), key=order.__getitem__)  # the depth of each listed unknown
    # stack[d] yields the candidates still to try at depth d; binding the
    # last depth completes a solution
    stack = [iter(_candidates(filed[0], y, lattice, on_lattice))]
    while stack:
        d = len(stack) - 1
        for v in stack[d]:
            y[d] = v
            if d == last:
                solutions.append(tuple(y[i] for i in at))
            else:
                candidates = _candidates(filed[d + 1], y, lattice, on_lattice)
                if candidates:
                    stack.append(iter(candidates))
                    break
        else:
            stack.pop()
    # the lattice ascends with the grid, so sorting the lattice tuples of the
    # listed unknowns sorts the maps lexicographically
    entry = {w: _canon(v) for w, v in zip(lattice, grid)}
    return [_theta([entry[w] for w in point], system.dim) for point in sorted(solutions)]


# Printed candidate families for dimension 2, by shape.  Free entries are
# symbolic, so verify_candidate decides "morphism for every parameter value".
FAMILY_CANDIDATES = {
    "annihilate_e2": {
        "a1": Scalar.parameter("a1"),
        "a2": Scalar.parameter("a2"),
        "b1": ZERO,
        "b2": ZERO,
    },
    "shear_and_scale": {
        "a1": ONE,
        "a2": Scalar.parameter("a2"),
        "b1": ZERO,
        "b2": Scalar.parameter("b2"),
    },
    "scale_e2": {
        "a1": ONE,
        "a2": ZERO,
        "b1": ZERO,
        "b2": Scalar.parameter("b2"),
    },
    "identity": {"a1": ONE, "a2": ZERO, "b1": ZERO, "b2": ONE},
    "zero": {"a1": ZERO, "a2": ZERO, "b1": ZERO, "b2": ZERO},
}


@dataclass(frozen=True)
class ClassificationReport:
    system: ConstraintSystem
    family_verdicts: tuple  # (family name, None | FailingEquation)
    grid_solutions: tuple  # LinearMaps, or None when the grid was skipped
    grid_skipped: str  # empty, or the reason
    summary: str

    def describe(self):
        lines = [self.summary]
        for name, verdict in self.family_verdicts:
            if verdict is None:
                lines.append(f"  family {name}: morphism for all parameter values")
            else:
                lines.append(f"  family {name}: fails, residual {verdict.residual}")
        if self.grid_solutions is None:
            lines.append(f"  grid check skipped: {self.grid_skipped}")
        else:
            lines.append(f"  grid check: {len(self.grid_solutions)} solution(s), zero map "
                         + ("included" if any(m.is_zero() for m in self.grid_solutions) else "absent"))
        return "\n".join(lines)


def classify_2dim(algebra, parameter_bindings=None, grid_values=DEFAULT_GRID):
    """Which printed self-morphism families an algebra of dimension 2 admits.

    Each candidate family is verified symbolically; a grid search (run when
    all algebra parameters are bound, skipped otherwise) spot-checks that no
    rational solutions outside the passing families were missed.  The zero
    map is reported separately, never suppressed.
    """
    if algebra.dim != 2:
        raise PreconditionError("classify_2dim only handles dimension 2")
    system = generate_constraints(algebra)
    verdicts = tuple(
        (name, verify_candidate(system, candidate)) for name, candidate in FAMILY_CANDIDATES.items()
    )

    grid_solutions = None
    skipped = ""
    bindings = dict(parameter_bindings or {})
    if system.params - set(bindings):
        skipped = "algebra parameters left symbolic: " + ", ".join(sorted(system.params - set(bindings)))
    else:
        grid_solutions = tuple(grid_search(system, grid_values, bindings))

    passing = [name for name, verdict in verdicts if verdict is None and name not in ("identity", "zero")]
    identity_ok = dict(verdicts)["identity"] is None
    if passing:
        summary = "parametric self-morphism families: " + ", ".join(sorted(passing))
    elif identity_ok:
        summary = "no parametric family; identity map only (plus the zero map)"
    else:
        summary = "no self-morphisms among the printed candidates"
    return ClassificationReport(
        system=system,
        family_verdicts=verdicts,
        grid_solutions=grid_solutions,
        grid_skipped=skipped,
        summary=summary,
    )
