"""Exact arithmetic for finite-dimensional binary-ternary Hom-algebras.

An algebra lives on a chosen basis as binary and ternary structure
constants plus a twisting endomorphism, with entries that are rational
numbers or polynomials in named parameters.  The package checks axiom
suites (Bol, Hom-Bol, Hom-Akivis, Hom-Lie, Hom-Lie triple, flexibility,
alternativity, Malcev) by exhaustive basis evaluation of validated
multilinear identities, runs the standard twisting and derived-algebra
constructions, solves self-morphism constraint systems, and ships a small
catalog of two-dimensional examples with cross-checked closed forms.
"""

from .algebra import HomAlgebra, LinearMap, Vector, is_morphism, is_weak_morphism
from .catalog import DiscrepancyReport, cross_check, get
from .constructions import (
    DERIVED_ORDER_LIMIT,
    hom_jacobian,
    malcev_to_bol,
    nth_derived,
    self_twist,
    yau_twist,
)
from .errors import (
    DimensionMismatch,
    ExponentLimitError,
    MultilinearityError,
    ParseError,
    PreconditionError,
)
from .identities import (
    SUITES,
    Counterexample,
    SuiteReport,
    check_identity,
    check_suite,
    parse_identity,
    parse_suite,
)
from .morphisms import (
    ConstraintSystem,
    classify_2dim,
    generate_constraints,
    grid_search,
    verify_candidate,
)
from .scalars import Scalar, parse_scalar
from .serialization import (
    emit_algebra,
    emit_constraints,
    emit_map,
    parse_algebra,
    parse_constraints,
    parse_map,
)

__version__ = "0.1.0"

__all__ = [
    "DERIVED_ORDER_LIMIT",
    "ConstraintSystem",
    "Counterexample",
    "DimensionMismatch",
    "DiscrepancyReport",
    "ExponentLimitError",
    "HomAlgebra",
    "LinearMap",
    "MultilinearityError",
    "ParseError",
    "PreconditionError",
    "Scalar",
    "SuiteReport",
    "SUITES",
    "Vector",
    "check_identity",
    "check_suite",
    "classify_2dim",
    "cross_check",
    "emit_algebra",
    "emit_constraints",
    "emit_map",
    "generate_constraints",
    "get",
    "grid_search",
    "hom_jacobian",
    "is_morphism",
    "is_weak_morphism",
    "malcev_to_bol",
    "nth_derived",
    "parse_algebra",
    "parse_constraints",
    "parse_identity",
    "parse_map",
    "parse_scalar",
    "parse_suite",
    "self_twist",
    "verify_candidate",
    "yau_twist",
]
