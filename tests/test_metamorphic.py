"""Metamorphic tests of the constructions.

Moving an algebra along an invertible linear map P (x *' y = P(P^-1 x * P^-1 y),
the ternary product likewise, twist P alpha P^-1) gives an isomorphic algebra.
So it must keep every suite verdict, and it must commute with every
construction when the maps the construction takes are moved along P too.

The algebras are seeded random ones of dimension 2 to 4, graded so that the
diagonal twist alpha = diag(+-1) and a foreign map beta = diag(2^w) are
commuting endomorphisms, plus three Hom-Bol algebras from the catalog and
the Malcev bridge.  Each P is a random invertible rational matrix, and the
test inverts it itself.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from hombol.algebra import HomAlgebra, LinearMap, tensor, zero_tensor
from hombol.catalog import get
from hombol.constructions import malcev_to_bol, nth_derived, self_twist, yau_twist
from hombol.identities import SUITES, check_suite
from hombol.serialization import parse_algebra

VALUES = (F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3))
ENTRIES = (F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3))

CROSS_LIE_DOC = (
    "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\n"
    "binary e1 e2 = e3\nbinary e2 e3 = e1\nbinary e3 e1 = e2\n"
)
CYCLE = LinearMap.from_columns(((0, 1, 0), (0, 0, 1), (1, 0, 0)))


def inverse(P):
    """P^-1 by Gauss-Jordan elimination over Q, or None when P is singular."""
    n = P.dim
    rows = [[P.rows[i][j].as_fraction() for j in range(n)] + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return LinearMap(tuple(tuple(row[n:]) for row in rows))


def random_invertible(rng, dim):
    while True:
        P = LinearMap(tuple(tuple(rng.choice(ENTRIES) for _ in range(dim)) for _ in range(dim)))
        Q = inverse(P)
        if Q is not None:
            assert P.compose(Q).is_identity() and Q.compose(P).is_identity()
            return P, Q


def move_map(m, P, Q):
    return P.compose(m).compose(Q)


def transport(alg, P, Q):
    """The algebra moved along P (Q = P^-1)."""
    images = [Q.column(i) for i in range(alg.dim)]
    return alg.replace(
        binary=tensor(alg.dim, 2, lambda idx: P.apply(alg.eval_binary(*(images[i] for i in idx))).coords),
        ternary=tensor(alg.dim, 3, lambda idx: P.apply(alg.eval_ternary(*(images[i] for i in idx))).coords),
        twist=move_map(alg.twist, P, Q),
    )


def graded_algebra(rng, dim):
    """A random algebra, skew in its first two arguments, with the commuting
    endomorphisms alpha = diag(s) and beta = diag(2^w): a cell e_i e_j -> e_k
    is allowed only when s_i s_j = s_k and w_i + w_j = w_k (likewise for the
    ternary product).  alpha is its twist; returns (algebra, beta)."""
    s = [rng.choice((1, -1)) for _ in range(dim)]
    w = [rng.choice((0, 0, 1)) for _ in range(dim)]

    def cells(arity):
        t = {}
        for idx in itertools.product(range(dim), repeat=arity):
            if idx[0] >= idx[1]:
                continue  # skew in the first two arguments: (j, i, ...) is set below
            for out in range(dim):
                allowed = math.prod(s[i] for i in idx) == s[out] and sum(w[i] for i in idx) == w[out]
                if allowed and rng.random() < 0.5:
                    value = rng.choice(VALUES)
                    t.setdefault(idx, [F(0)] * dim)[out] = value
                    t.setdefault((idx[1], idx[0]) + idx[2:], [F(0)] * dim)[out] = -value
        zero = [F(0)] * dim
        return tensor(dim, arity, lambda idx: t.get(idx, zero))

    alpha = LinearMap(tuple(tuple(F(s[i]) if i == j else F(0) for j in range(dim)) for i in range(dim)))
    beta = LinearMap(tuple(tuple(F(2) ** w[i] if i == j else F(0) for j in range(dim)) for i in range(dim)))
    return HomAlgebra(dim, binary=cells(2), ternary=cells(3), twist=alpha), beta


SEEDS = (11, 12, 13, 14, 15, 16)


def random_case(seed):
    rng = random.Random(seed)
    dim = 2 + seed % 3
    while True:
        alg, beta = graded_algebra(rng, dim)
        if alg.binary != zero_tensor(dim, 2) and alg.ternary != zero_tensor(dim, 3):
            return alg, beta, random_invertible(rng, dim)


def named_cases():
    """Hom-Bol algebras with a commuting endomorphism other than alpha."""
    bol = malcev_to_bol(parse_algebra(CROSS_LIE_DOC))
    rng = random.Random(7)
    hb2 = get("HB_A2", lam=F(1), a=F(0), b=F(2))
    hb3 = get("HB_A3", b=F(1), sign="+")
    return [
        ("HB_A2", hb2, hb2.twist.power(2), random_invertible(rng, 2)),
        ("HB_A3+", hb3, hb3.twist, random_invertible(rng, 2)),
        ("so3-Bol", bol, CYCLE, random_invertible(rng, 3)),
        ("so3-Bol along P", self_twist(bol, CYCLE, 1), CYCLE, random_invertible(rng, 3)),
    ]


CASES = [(f"seed-{seed}", *random_case(seed)) for seed in SEEDS] + named_cases()
IDS = [case[0] for case in CASES]


def verdicts(alg):
    return {
        name: tuple((ident, r is None) for ident, r in check_suite(alg, suite).results)
        for name, suite in SUITES.items()
    }


def test_the_random_algebras_carry_their_endomorphisms():
    for _, alg, beta, _ in CASES:
        assert alg.is_multiplicative()
        assert beta.compose(alg.twist) == alg.twist.compose(beta)
    # the foreign maps are not all powers of the twist
    assert any(beta not in (alg.twist, LinearMap.identity(alg.dim)) for _, alg, beta, _ in CASES)


@pytest.mark.parametrize("label, alg, beta, PQ", CASES, ids=IDS)
def test_transport_keeps_every_suite_verdict(label, alg, beta, PQ):
    assert verdicts(transport(alg, *PQ)) == verdicts(alg)


def test_the_verdicts_are_not_all_alike():
    seen = {tuple(sorted(verdicts(alg).items())) for _, alg, _, _ in CASES}
    assert len(seen) > 3
    assert any(check_suite(alg, "hom_bol").passed for _, alg, _, _ in CASES)


@pytest.mark.parametrize("label, alg, beta, PQ", CASES, ids=IDS)
def test_transport_commutes_with_self_twist(label, alg, beta, PQ):
    moved = transport(alg, *PQ)
    for gamma in (beta, alg.twist):
        for n in range(3):
            assert self_twist(moved, move_map(gamma, *PQ), n) == transport(self_twist(alg, gamma, n), *PQ)


@pytest.mark.parametrize("label, alg, beta, PQ", CASES, ids=IDS)
def test_transport_commutes_with_yau_twist(label, alg, beta, PQ):
    # beta is an endomorphism of the untwisted algebra too
    plain = alg.replace(twist=LinearMap.identity(alg.dim))
    moved = transport(plain, *PQ)
    assert yau_twist(moved, move_map(beta, *PQ)) == transport(yau_twist(plain, beta), *PQ)


@pytest.mark.parametrize("label, alg, beta, PQ", CASES, ids=IDS)
def test_transport_commutes_with_nth_derived(label, alg, beta, PQ):
    for source in (alg, alg.replace(ternary=None)):
        moved = transport(source, *PQ)
        for n in range(3):
            assert nth_derived(moved, n) == transport(nth_derived(source, n), *PQ)
