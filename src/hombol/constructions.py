"""Constructions that produce new twisted algebras from given ones.

Each construction composes a power of some endomorphism with the structure
tensors (matrix times unfolded tensor, entry by entry), so outputs stay exact
scalar tensors.  Derived-algebra orders are capped (default 16) because the
twist powers grow like 2^(n+1).
"""

from __future__ import annotations

from .algebra import LinearMap, cell_at, first_weak_morphism_failure, tensor, zero_tensor
from .errors import ExponentLimitError, PreconditionError
from .identities import SUITES, check_suite, parse_identity, tabulate

__all__ = [
    "compose_tensor",
    "yau_twist",
    "self_twist",
    "nth_derived",
    "derived_binary_only",
    "sequence_member",
    "malcev_to_bol",
    "hom_jacobian",
    "DERIVED_ORDER_LIMIT",
]

DERIVED_ORDER_LIMIT = 16


def compose_tensor(m, t, arity):
    """The map applied to every cell of a structure tensor of the given
    arity: m(e_i * e_j) for the binary product, m({e_i, e_j, e_k}) for the
    ternary one."""
    return tensor(len(t), arity, lambda idx: m.apply(cell_at(t, idx)).coords)


def _require_endomorphism(beta, alg, who):
    failure = first_weak_morphism_failure(beta, alg, alg)
    if failure is not None:
        kind, indices, residual = failure
        labels = ", ".join(alg.basis[i] for i in indices)
        raise PreconditionError(
            f"{who}: map is not an endomorphism; {kind} product at ({labels}) "
            f"differs by {residual}"
        )


def _recompose(algebra, base, p, q, t, *, tail=None, add_params=False):
    """The algebra with its binary product composed with base^p, its ternary
    product with base^q (None: zero), and the twist base^t, then tail.

    The powers are made one at a time, after the previous one is used, so
    only one large symbolic power is alive at once.  ``add_params`` adds
    base's parameters to the algebra's.
    """
    binary = compose_tensor(base.power(p), algebra.binary, 2)
    ternary = None if q is None else compose_tensor(base.power(q), algebra.ternary, 3)
    twist = base.power(t) if tail is None else base.power(t).compose(tail)
    params = algebra.params | base.variables() if add_params else algebra.params
    return algebra.replace(binary=binary, ternary=ternary, twist=twist, params=params)


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
    return _recompose(algebra, beta, 1, 2, 1, add_params=True)


def self_twist(algebra, beta, n):
    """Twist a twisted algebra along a commuting endomorphism beta, n >= 1.

    Binary gains beta^n, ternary beta^(2n), and the twist becomes
    beta^n . alpha.
    """
    if not isinstance(n, int) or n < 1:
        raise PreconditionError("self_twist: n must be a positive integer")
    _require_endomorphism(beta, algebra, "self_twist")
    if not beta.commutes_with(algebra.twist):
        raise PreconditionError("self_twist: the map does not commute with the twist")
    return _recompose(algebra, beta, n, 2 * n, n, tail=algebra.twist, add_params=True)


def _check_order(n, limit, who):
    if not isinstance(n, int) or n < 0:
        raise PreconditionError(f"{who}: the order n must be a nonnegative integer")
    if n > limit:
        raise ExponentLimitError(
            f"{who}: order {n} exceeds the exponent limit {limit}; twist powers would reach 2^{n + 1}"
        )


def nth_derived(algebra, n, *, limit=DERIVED_ORDER_LIMIT):
    """The n-th derived algebra: binary gains twist^(2^n - 1), ternary
    twist^(2^(n+1) - 2), and the twist becomes twist^(2^n)."""
    _check_order(n, limit, "nth_derived")
    return _recompose(algebra, algebra.twist, 2**n - 1, 2 ** (n + 1) - 2, 2**n)


def derived_binary_only(algebra, n, *, limit=DERIVED_ORDER_LIMIT):
    """Derived construction for the binary part alone; the ternary is zero."""
    _check_order(n, limit, "derived_binary_only")
    return _recompose(algebra, algebra.twist, 2**n - 1, None, 2**n)


def sequence_member(algebra, beta, n):
    """Member n of the twisting sequence: binary beta^n, ternary beta^(2n),
    twist beta^(n+1).

    ``beta=None`` uses the algebra twist (the closure case); any other beta
    must be a commuting endomorphism.
    """
    if not isinstance(n, int) or n < 0:
        raise PreconditionError("sequence_member: n must be a nonnegative integer")
    if beta is None:
        beta = algebra.twist
    _require_endomorphism(beta, algebra, "sequence_member")
    if not beta.commutes_with(algebra.twist):
        raise PreconditionError("sequence_member: the map does not commute with the twist")
    return _recompose(algebra, beta, n, 2 * n, n + 1, add_params=True)


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
    if algebra.ternary != zero_tensor(algebra.dim, 3):
        raise PreconditionError("malcev_to_bol: the ternary tensor must be zero")
    report = check_suite(algebra, SUITES["malcev"])
    if not report.passed:
        failure = report.failures[0]
        raise PreconditionError(f"malcev_to_bol: not Malcev; {failure.describe(algebra.basis)}")
    if beta is None:
        beta = LinearMap.identity(algebra.dim)
    _require_endomorphism(beta, algebra, "malcev_to_bol")

    table = tabulate(_MALCEV_BRACKET.lhs, algebra, _MALCEV_BRACKET.variables)
    ternary = tensor(algebra.dim, 3, lambda idx: cell_at(table, idx).coords)
    return yau_twist(algebra.replace(ternary=ternary), beta)


def hom_jacobian(algebra):
    """The twisted Jacobian tensor: J(x,y,z) = sum over cyclic rotations of
    (x*y)*alpha(z), returned as a rank-3 table of vectors indexed [i][j][k]."""
    return tabulate(_HOM_JACOBI.lhs, algebra, _HOM_JACOBI.variables, SUITES["hom_lie"].twist_exponent)
