"""The variable swaps that let ``check_identity`` skip basis tuples.

``identities._symmetries`` expands lhs - rhs algebra-free and finds each
transposition of two variables that maps it to plus or minus itself modulo
skew products of the kinds it is given, formally when there are none.  The
table of the built-in identities pins the fewest kinds each swap needs, and
each identity's swaps under every set of kinds must be the rows whose kinds
lie in it.  Every row is checked on seeded algebras: the values of lhs - rhs
at the swapped tuple are the sign times those at the tuple, on tensors skew
in each set of kinds that holds the row's, and a swap that needs skew
products fails on tensors skew in any set that does not.
"""

import itertools
from fractions import Fraction as F

import pytest

from test_round_trip import _algebra
from test_tables import skewed

from hombol.algebra import cell_at
from hombol.identities import SUITES, ScalarMul, Sum, _symmetries, parse_identity, tabulate

B, T, BT = ("binary",), ("ternary",), ("binary", "ternary")
KINDS = ((), B, T, BT)
VANISHING = ("skew_ternary", "alt_first_pair")  # lhs - rhs is zero modulo skew ternary products


def s3(sign, kinds):
    return {(a, b, sign, kinds) for a, b in (("x", "y"), ("x", "z"), ("y", "z"))}


def derivation(kinds):
    return {("x", "y", -1, kinds), ("u", "v", -1, kinds)}


# name: {(a, b, sign, kinds)}, swapping a and b maps lhs - rhs to sign times
# itself modulo skew products of kinds, and of no fewer kinds: formally when
# kinds is empty
TABLE = {
    "malcev_linearized": {("x", "w", 1, ())},
    "binary_derivation": derivation(BT),
    "twisted_binary_derivation": derivation(BT),
    "ternary_derivation": derivation(T),
    "twisted_ternary_derivation": derivation(T),
    "hom_nambu": derivation(T),
    "ternary_jacobi": s3(-1, T),
    "hom_jacobi": s3(-1, B),
    "akivis_balance": s3(-1, B),
    "flex_polarized": {("x", "z", 1, ())},
    "skew_binary": {("x", "y", 1, ())},
    "twist_respects_binary": {("x", "y", -1, B)},
    "twist_respects_ternary": {("x", "y", -1, T)},
    "alt_last_pair": {("y", "z", 1, ())},
    # every swap fixes zero
    **dict.fromkeys(VANISHING, {("x", "y", 1, ())} | {(a, "z", 1, T) for a in "xy"}),
}

IDENTITIES = {ident.name: ident for suite in SUITES.values() for ident in suite.identities}


def named(ident, kinds):
    names = ident.variables
    return {(names[p], names[q], sign) for p, q, sign in _symmetries(ident, kinds)}


def holding(rows, kinds):
    """The (a, b, sign) of the rows that hold modulo skew products of kinds."""
    return {(a, b, sign) for a, b, sign, needs in rows if set(needs) <= set(kinds)}


def test_every_built_in_identity_has_the_swaps_of_the_table():
    assert set(IDENTITIES) == set(TABLE)
    for name, ident in IDENTITIES.items():
        for kinds in KINDS:
            assert named(ident, kinds) == holding(TABLE[name], kinds), (name, kinds)
            # at most one swap per pair of positions, in the order of the
            # pairs, so the table fixes the tuple
            pairs = [(p, q) for p, q, _ in _symmetries(ident, kinds)]
            assert pairs == sorted(set(pairs)), (name, kinds)


def test_a_variable_named_like_a_product_kind_is_swapped_as_a_variable():
    for kinds in KINDS:
        assert named(parse_identity("binary*ternary = ternary*binary"), kinds) == {("binary", "ternary", -1)}
        got = named(parse_identity("{binary,ternary,A(w)} = 0"), kinds)
        assert got == holding({("binary", "ternary", -1, T)}, kinds), kinds


def test_a_swap_that_is_no_symmetry_is_not_claimed():
    # modulo skew products y*z is skew in y, z and the associator in x, z,
    # but a multiple of the associator is fixed by no swap
    for kinds in KINDS:
        skew = "binary" in kinds
        assert _symmetries(parse_identity("x*(y*z) = 0"), kinds) == ((1, 2, -1),) * skew
        assert _symmetries(parse_identity("x*(y*z) = (x*y)*z"), kinds) == ((0, 2, -1),) * skew
        assert _symmetries(parse_identity("x*(y*z) = 2 (x*y)*z"), kinds) == ()


def test_a_swap_that_holds_modulo_either_skew_kind_holds_modulo_each():
    # y*x = -x*y and {z,y*x,w} = -{y*x,z,w} each turn the swapped sum into
    # minus itself, so skew ternary products alone suffice
    ident = parse_identity("{x*y,z,w} + {z,y*x,w} = 0")
    assert [_symmetries(ident, kinds) for kinds in KINDS] == [(), ((0, 1, -1),), ((0, 1, -1),), ((0, 1, -1),)]


def residuals(alg, ident, e):
    """lhs - rhs on every basis tuple, keyed by the tuple."""
    diff = Sum((ident.lhs, ScalarMul(F(-1), ident.rhs)))
    table = tabulate(diff, alg, ident.variables, e)
    return {idx: cell_at(table, idx) for idx in itertools.product(range(alg.dim), repeat=len(ident.variables))}


def swapped(idx, p, q):
    out = list(idx)
    out[p], out[q] = out[q], out[p]
    return tuple(out)


CLAIMS = [
    (name, IDENTITIES[name].variables.index(a), IDENTITIES[name].variables.index(b), sign, kinds)
    for name, rows in TABLE.items()
    for a, b, sign, kinds in sorted(rows)
]
SKEW_CLAIMS = [claim for claim in CLAIMS if claim[4]]


def claim_id(claim):
    name, p, q, _, _ = claim
    return f"{name}-{p}{q}"


@pytest.mark.parametrize("name, p, q, sign, kinds", CLAIMS, ids=map(claim_id, CLAIMS))
@pytest.mark.parametrize("seed, symbolic", [(1, False), (2, True)])
def test_each_swap_maps_the_residual_to_its_sign_times_itself(name, p, q, sign, kinds, seed, symbolic):
    ident = IDENTITIES[name]
    for skew in KINDS:
        if not set(kinds) <= set(skew):
            continue
        alg = skewed(_algebra(3, seed, symbolic), skew)
        shown = False
        for e in (1,) if symbolic else (1, 2):
            values = residuals(alg, ident, e)
            shown |= any(not value.is_zero() for value in values.values())
            for idx, value in values.items():
                assert values[swapped(idx, p, q)] == value.scale(sign), (skew, idx, e)
        # a swap of zero residuals shows nothing; skew in more kinds than the
        # swap needs, an identity may hold outright
        if skew == kinds:
            assert shown != (name in VANISHING and "ternary" in kinds)


@pytest.mark.parametrize("name, p, q, sign, kinds", SKEW_CLAIMS, ids=map(claim_id, SKEW_CLAIMS))
def test_a_swap_modulo_skew_products_fails_where_they_are_not_skew(name, p, q, sign, kinds):
    for skew in KINDS:
        if set(kinds) <= set(skew):
            continue
        values = residuals(skewed(_algebra(3, 1, symbolic=False), skew), IDENTITIES[name], 1)
        assert any(values[swapped(idx, p, q)] != value.scale(sign) for idx, value in values.items()), skew
