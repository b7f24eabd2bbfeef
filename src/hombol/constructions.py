"""Constructions that produce new twisted algebras from given ones.

Each construction composes a power of some endomorphism with the structure
tensors (matrix times unfolded tensor, entry by entry), so outputs stay exact
scalar tensors.  The paper's two closure theorems are ``self_twist``, along a
commuting self-morphism (``yau_twist`` is its identity-twist case, the twisting
sequence its beta = alpha case), and ``nth_derived``, whose order is capped at
DERIVED_ORDER_LIMIT because its twist powers grow like 2^(n+1).
"""

from __future__ import annotations

from .algebra import POWER_LIMIT, PRODUCTS, HomAlgebra, LinearMap, Vector, _residuals, cell_at
from .errors import ExponentLimitError, PreconditionError
from .identities import SUITES, check_suite, parse_identity, tabulate

__all__ = [
    "yau_twist",
    "self_twist",
    "nth_derived",
    "malcev_to_bol",
    "hom_jacobian",
    "DERIVED_ORDER_LIMIT",
]

# the largest order whose ternary power 2^(n+1) - 2 stays within POWER_LIMIT
DERIVED_ORDER_LIMIT = POWER_LIMIT.bit_length() - 2


def _require_endomorphism(beta, alg, who):
    for kind, indices, residual in _residuals(beta, alg, alg):
        if not residual:
            continue
        if kind == "twist":
            raise PreconditionError(f"{who}: the map does not commute with the twist")
        labels = ", ".join(alg.basis[i] for i in indices)
        raise PreconditionError(
            f"{who}: map is not an endomorphism; {kind} product at ({labels}) "
            f"differs by {Vector._of(residual, alg.dim)}"
        )


def _recompose(algebra, base, p):
    """The algebra with its binary product composed with P = base^p, its
    ternary product with P^2, the twist P . alpha, and base's parameters
    added to its own."""
    if 2 * p > POWER_LIMIT:
        raise ExponentLimitError(f"a map power exceeds the exponent limit {POWER_LIMIT}")
    power = base.power(p)
    maps = {"binary": power, "ternary": power.compose(power)}
    cells = {kind: {idx: f._apply(c) for k, idx, c in algebra._cells() if k == kind and c} for kind, f in maps.items()}
    params = algebra.params | base.variables()
    return HomAlgebra._of(algebra.dim, algebra.basis, params, cells, power.compose(algebra.twist))


def yau_twist(algebra, beta, *, check=True):
    """Twist an untwisted algebra along an endomorphism beta.

    The binary product is composed with beta, the ternary one with beta^2,
    and beta becomes the twist.  ``check=False`` skips the endomorphism
    precondition; the catalog uses that to reproduce one published family
    whose parametric form fails the check (see catalog.cross_check).
    """
    if not algebra.twist.is_identity():
        raise PreconditionError("yau_twist: the algebra must carry the identity twist")
    if check:
        _require_endomorphism(beta, algebra, "yau_twist")
    return _recompose(algebra, beta, 1)


def self_twist(algebra, beta, n):
    """Twist a twisted algebra along a commuting endomorphism beta, n >= 0.

    Binary gains beta^n, ternary beta^(2n), and the twist becomes
    beta^n . alpha; n = 0 gives the algebra back.  With beta = alpha this is
    member n of the twisting sequence.
    """
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("self_twist: n must be a nonnegative integer")
    _require_endomorphism(beta, algebra, "self_twist")
    return _recompose(algebra, beta, n)


def nth_derived(algebra, n):
    """The n-th derived algebra: binary gains twist^(2^n - 1), ternary
    twist^(2^(n+1) - 2), and the twist becomes twist^(2^n)."""
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("nth_derived: the order n must be a nonnegative integer")
    if n > DERIVED_ORDER_LIMIT:
        raise ExponentLimitError(
            f"nth_derived: order {n} exceeds the exponent limit {DERIVED_ORDER_LIMIT}; "
            f"twist powers would reach 2^{n + 1}"
        )
    return _recompose(algebra, algebra.twist, 2**n - 1)


# the ternary product a Malcev algebra induces, and the twisted Jacobian
_MALCEV_BRACKET = parse_identity("1/3 (2 (x*y)*z - (y*z)*x - (z*x)*y) = 0", name="malcev_bracket")
_HOM_JACOBI = next(i for i in SUITES["hom_lie"].identities if i.name == "hom_jacobi")


def malcev_to_bol(algebra, beta=None):
    """Build the associated ternary product of a Malcev (binary) algebra and
    twist the result along beta.

    The input must carry the identity twist, a zero ternary tensor, and
    satisfy the Malcev suite.  The new ternary product is
    1/3*(2(x*y)*z - (y*z)*x - (z*x)*y); beta defaults to the identity.
    """
    if not algebra.twist.is_identity():
        raise PreconditionError("malcev_to_bol: the algebra must carry the identity twist")
    if any(cell for kind, _, cell in algebra._cells() if kind == "ternary"):
        raise PreconditionError("malcev_to_bol: the ternary tensor must be zero")
    report = check_suite(algebra, SUITES["malcev"])
    if not report.passed:
        failure = report.failures[0]
        raise PreconditionError(f"malcev_to_bol: not Malcev; {failure.describe(algebra.basis)}")
    if beta is None:
        beta = LinearMap.identity(algebra.dim)
    _require_endomorphism(beta, algebra, "malcev_to_bol")

    table = tabulate(_MALCEV_BRACKET.lhs, algebra, _MALCEV_BRACKET.variables)
    cells = {kind: {} for kind, _ in PRODUCTS}
    for kind, idx, cell in algebra._cells():
        cells[kind][idx] = cell if kind == "binary" else cell_at(table, idx)._d
    return _recompose(HomAlgebra._of(algebra.dim, algebra.basis, algebra.params, cells, algebra.twist), beta, 1)


def hom_jacobian(algebra):
    """The twisted Jacobian tensor: J(x,y,z) = sum over cyclic rotations of
    (x*y)*alpha(z), returned as a rank-3 table of vectors indexed [i][j][k]."""
    return tabulate(_HOM_JACOBI.lhs, algebra, _HOM_JACOBI.variables)
