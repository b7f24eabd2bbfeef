"""Self-morphism constraint systems: generate, verify, and solve over grids.

A self-morphism is a matrix theta with theta(e_i * e_j) = theta(e_i) *
theta(e_j), likewise for the ternary product, and theta . alpha = alpha . theta
for the twist alpha (no condition when alpha is the identity).  Writing theta
with one unknown per entry and expanding both sides over the basis yields one
polynomial per coordinate; the system is the deduplicated list of those
polynomials, each meaning "= 0".

Unknowns for dimension 2 follow the classical layout: theta(e1) = a1 e1 + a2 e2,
theta(e2) = b1 e1 + b2 e2.  Other dimensions use t<src>_<tgt>.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LinearMap, Vector, morphism_residuals
from .errors import PreconditionError
from .scalars import Scalar, ZERO, ONE

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

    def unknown_at(self, src, tgt):
        return self.unknowns[src * self.dim + tgt]


@dataclass(frozen=True)
class FailingEquation:
    index: int
    equation: Scalar
    residual: Scalar


def unknown_names(dim):
    if dim == 2:
        return ("a1", "a2", "b1", "b2")
    return tuple(f"t{j + 1}_{i + 1}" for j in range(dim) for i in range(dim))


def generate_constraints(algebra):
    """The polynomial system cutting out self-morphisms of the algebra.

    Theta must intertwine both products and the twist.  The twist's
    (linear) equations theta.alpha - alpha.theta come last; for the identity
    twist they are all zero, so none joins the system.
    """
    n = algebra.dim
    names = unknown_names(n)
    taken = algebra.all_variables()
    clash = set(names) & taken
    if clash:
        raise ValueError(f"unknown name collides with an algebra parameter: {sorted(clash)[0]!r}")

    theta = LinearMap.from_columns(
        tuple(tuple(Scalar.parameter(names[j * n + i]) for i in range(n)) for j in range(n))
    )

    equations = {}

    def push(residual):
        for coord in residual.coords:
            if not coord.is_zero():
                equations.setdefault(coord, None)

    for _, _, residual in morphism_residuals(theta, algebra, algebra):
        push(residual)
    lhs = theta.compose(algebra.twist)
    rhs = algebra.twist.compose(theta)
    for i in range(n):
        push(Vector(lhs.rows[i]) - Vector(rhs.rows[i]))

    eqs = tuple(equations)
    params = frozenset().union(*(eq.variables() for eq in eqs)) - set(names) if eqs else frozenset()
    return ConstraintSystem(dim=n, unknowns=names, params=params, equations=eqs)


def _bindings_from(system, candidate):
    if isinstance(candidate, LinearMap):
        if candidate.dim != system.dim:
            raise ValueError("candidate dimension does not match the system")
        return {
            system.unknown_at(j, i): candidate.rows[i][j]
            for j in range(system.dim)
            for i in range(system.dim)
        }
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
    out = {}
    for name, value in given.items():
        s = Scalar._coerce(value)
        if s is None:
            raise TypeError(f"cannot bind unknown {name!r} to {value!r}")
        out[name] = s
    return out


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


def grid_search(system, values, parameter_bindings=None):
    """All unknown assignments over a finite value grid solving the system.

    Every algebra parameter must be bound to a rational first.  Candidates
    are enumerated, and returned, in lexicographic order of the unknown
    vector over the ascending value grid; the zero map, when it solves the
    system, is simply one of them.
    """
    bindings = {name: Fraction(v) for name, v in (parameter_bindings or {}).items()}
    unbound = sorted(system.params - set(bindings))
    if unbound:
        raise ValueError(f"unbound parameter {unbound[0]!r}")
    grid = sorted({Fraction(v) for v in values})
    bound_eqs = [eq.substitute(bindings) for eq in system.equations] if bindings else list(system.equations)
    bound_eqs = [eq for eq in bound_eqs if not eq.is_zero()]

    solutions = []
    n = system.dim
    for combo in itertools.product(grid, repeat=len(system.unknowns)):
        assignment = dict(zip(system.unknowns, combo))
        if all(eq.evaluate(assignment) == 0 for eq in bound_eqs):
            solutions.append(
                LinearMap.from_columns(
                    tuple(
                        tuple(Scalar.rational(combo[j * n + i]) for i in range(n))
                        for j in range(n)
                    )
                )
            )
    return solutions


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
