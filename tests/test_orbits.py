"""Few basis tuples per orbit of the algebra's symmetries and the identity's swaps.

``check_identity`` tabulates the outermost products, and compares the two
sides, only at the tuples least under the algebra's automorphisms whose
indices rise along the swaps, which hold the least tuple of each orbit
(``identities._Orbits``).  The orbits are those of the group that the
identity's variable swaps and the algebra's signed-permutation
automorphisms commuting with the twist generate
(``HomAlgebra._symmetry``).  A brute-force test checks the kept tuples
against both.  The oracle here checks every tuple
with no symmetry: it tabulates each side over all basis tuples and takes
the first tuple, in lexicographic order, where they differ.  The verdict,
the tuple and the residual must be the same on the catalog, the
metamorphic cases, the relabelled octonions with each sign automorphism as
twist, direct sums of so(3), seeded random algebras, rational and symbolic,
and seeded random algebras averaged over a signed permutation, which fail
with a nontrivial group.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from test_metamorphic import CASES as METAMORPHIC, CROSS_LIE_DOC, transport
from test_round_trip import _algebra
from test_tables import catalog, octonions, skewed, tampered

from hombol import algebra, identities
from hombol.algebra import HomAlgebra, LinearMap, cell_at, is_morphism, is_weak_morphism, tensor
from hombol.constructions import malcev_to_bol
from hombol.identities import SUITES, Counterexample, check_identity, check_suite, parse_identity, tabulate
from hombol.scalars import Scalar
from hombol.serialization import parse_algebra

IDENTITIES = [ident for suite in SUITES.values() for ident in suite.identities]


def every_tuple(alg, ident, e=1):
    """check_identity with no symmetry: the first basis tuple where the
    sides, tabulated over all tuples, differ."""
    names = ident.variables
    lhs, rhs = (tabulate(side, alg, names, e) for side in (ident.lhs, ident.rhs))
    for idx in itertools.product(range(alg.dim), repeat=len(names)):
        residual = cell_at(lhs, idx) - cell_at(rhs, idx)
        if residual:
            return Counterexample(identity=ident.name, variables=names, indices=idx, residual=residual)
    return None


def assert_like_every_tuple(alg, identities=IDENTITIES, exponents=(1,)):
    for ident in identities:
        for e in exponents:
            want = every_tuple(alg, ident, e)
            assert check_identity(alg, ident, e) == want, f"{ident.name} at twist exponent {e}"


def suites(*names):
    return [ident for name in names for ident in SUITES[name].identities]


# --- algebras with symmetry ---------------------------------------------------------

PERM = (3, 6, 0, 5, 1, 4, 2)  # e_i of the octonions becomes e_PERM[i]


def relabelled(alg, perm):
    """alg with its basis vector e_i renamed e_perm[i]."""
    back = [perm.index(i) for i in range(alg.dim)]

    def moved(t, arity):
        def cell(idx):
            old = cell_at(t, tuple(back[i] for i in idx))
            return tuple(old[back[k]] for k in range(alg.dim))

        return tensor(alg.dim, arity, cell)

    twist = LinearMap(tuple(tuple(alg.twist.rows[back[a]][back[b]] for b in range(alg.dim)) for a in range(alg.dim)))
    return alg.replace(binary=moved(alg.binary, 2), ternary=moved(alg.ternary, 3), twist=twist)


def diagonal(signs):
    return LinearMap(tuple(tuple(s if i == j else 0 for j, s in enumerate(signs)) for i in range(len(signs))))


OCTONIONS = relabelled(octonions(), PERM)
# the sign vectors s with diag(s) an automorphism: all +1 and the seven that
# are +1 on one line and -1 off it
SIGNS = [s for s in itertools.product((1, -1), repeat=7) if is_weak_morphism(diagonal(s), OCTONIONS, OCTONIONS)]
LINES = {frozenset(i + (next(iter(cell)),)) for kind, i, cell in OCTONIONS._cells() if cell}


def with_lie_triple(bol):
    """bol with the ternary product {x,y,z} + <y,z>x - <x,z>y: still skew in
    x, y, and every signed permutation keeps the dot product, so every
    automorphism of bol is one of it; the derivation identities fail."""

    def cell(idx):
        i, j, k = idx
        coords = list(cell_at(bol.ternary, idx))
        coords[i] += int(j == k)
        coords[j] -= int(i == k)
        return tuple(coords)

    return bol.replace(ternary=tensor(bol.dim, 3, cell))


def direct_sum(a, b):
    """a + b, with b's basis after a's, and the twist of each on its part."""
    n = a.dim + b.dim

    def part(idx):
        if all(i < a.dim for i in idx):
            return a, idx, 0
        if all(i >= a.dim for i in idx):
            return b, tuple(i - a.dim for i in idx), a.dim
        return None

    def moved(kind, arity):
        def cell(idx):
            found = part(idx)
            out = [0] * n
            if found:
                alg, sub, shift = found
                for k, c in enumerate(cell_at(getattr(alg, kind), sub)):
                    out[k + shift] = c
            return tuple(out)

        return tensor(n, arity, cell)

    def twist_entry(i, j):
        if (i < a.dim) != (j < a.dim):
            return 0
        alg, shift = (a, 0) if i < a.dim else (b, a.dim)
        return alg.twist.rows[i - shift][j - shift]

    rows = tuple(tuple(twist_entry(i, j) for j in range(n)) for i in range(n))
    return HomAlgebra(n, binary=moved("binary", 2), ternary=moved("ternary", 3), twist=LinearMap(rows))


# --- the group ------------------------------------------------------------------------


def test_the_octonions_have_the_collineations_and_a_sign_twist_the_line_stabilizer():
    group = OCTONIONS._symmetry()
    assert len(group) == 168 and group[0] == tuple(range(7)) and list(group) == sorted(group)
    assert all({frozenset(p[i] for i in line) for line in LINES} == LINES for p in group)
    assert {tuple(q[i] for i in p) for p in group for q in group} == set(group)
    assert len(SIGNS) == 8
    for s in SIGNS[1:]:
        twisted = OCTONIONS.replace(twist=diagonal(s))
        assert twisted._symmetry() == tuple(p for p in group if all(s[p[i]] == s[i] for i in range(7)))
        assert len(twisted._symmetry()) == 24
        assert len(malcev_to_bol(OCTONIONS, diagonal(s))._symmetry()) == 24
    assert len(malcev_to_bol(OCTONIONS)._symmetry()) == 168


def signed(perm, signs):
    """The signed permutation e_i -> signs[i] e_perm[i]."""
    return LinearMap(tuple(tuple(s if p == i else 0 for p, s in zip(perm, signs)) for i in range(len(perm))))


def test_the_symmetry_is_found_once_per_algebra_whatever_the_number_of_variables(monkeypatch):
    found = []
    index_group = algebra._index_group
    monkeypatch.setattr(algebra, "_index_group", lambda alg: found.append(alg) or index_group(alg))
    oct_ = OCTONIONS.replace()
    bol = malcev_to_bol(oct_)  # its Malcev precondition finds the octonions' group
    assert found == [oct_]
    assert check_suite(bol, "bol").passed and check_suite(bol, "hom_bol").passed
    assert found == [oct_, bol]
    # hom_lie's identities have at most three variables, and take the group too
    fresh = OCTONIONS.replace()
    assert all(len(i.variables) <= 3 for i in SUITES["hom_lie"].identities)
    assert not check_suite(fresh, "hom_lie").passed and not check_suite(fresh, "hom_lie").passed
    assert len(found) == 3 and found[-1] is fresh


def test_an_algebra_without_symmetry_lists_no_tuples(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trivial group lists no orbit representatives")

    monkeypatch.setattr(identities, "_least", refuse)
    for _, alg in catalog():
        assert alg._symmetry() == (tuple(range(alg.dim)),)
        assert_like_every_tuple(alg, suites("hom_bol"))
    alg = skewed(_algebra(3, 1, symbolic=False), ("binary", "ternary"))
    assert alg._symmetry() == (tuple(range(3)),)
    assert_like_every_tuple(alg)


def test_past_the_budget_the_group_is_trivial_and_the_checks_unchanged(monkeypatch):
    monkeypatch.setattr(algebra, "SYMMETRY_BUDGET", 40)
    assert OCTONIONS.replace()._symmetry() == (tuple(range(7)),)
    monkeypatch.undo()
    monkeypatch.setattr(identities, "SYMMETRY_BUDGET", 40)
    bol = with_lie_triple(malcev_to_bol(OCTONIONS))
    assert identities._Orbits(bol, SUITES["bol"].identities[4]).reps is None
    assert_like_every_tuple(bol, suites("bol"))


def test_the_orbits_of_the_octonion_bol_derivations():
    bol = malcev_to_bol(OCTONIONS)
    counts = {i.name: len(identities._Orbits(bol, i).reps) for i in suites("bol") if len(i.variables) > 3}
    assert counts == {"binary_derivation": 9, "ternary_derivation": 54}
    malcev = SUITES["malcev"].identities[1]
    assert len(identities._Orbits(OCTONIONS, malcev).reps) == 25


# --- the oracle -------------------------------------------------------------------------


@pytest.mark.parametrize("s", SIGNS, ids=["".join("+" if x > 0 else "-" for x in s) for s in SIGNS])
def test_relabelled_octonions_with_each_sign_twist_check_like_every_tuple(s):
    twisted = OCTONIONS.replace(twist=diagonal(s))
    assert_like_every_tuple(twisted, suites("malcev", "hom_lie", "hom_bol"))
    bol = malcev_to_bol(OCTONIONS, diagonal(s))
    assert_like_every_tuple(bol, suites("hom_bol", "bol"))


def test_the_octonions_list_one_tuple_per_orbit_for_identities_of_at_most_three_variables():
    small = [i for i in IDENTITIES if len(i.variables) <= 3]
    for ident in small:
        reps = identities._Orbits(OCTONIONS, ident).reps
        assert reps is not None and len(reps) < 7 ** len(ident.variables), ident.name
    assert_like_every_tuple(OCTONIONS, small)


@pytest.mark.parametrize("s", [SIGNS[0], SIGNS[3]], ids=["identity", "sign"])
def test_a_symmetric_algebra_that_fails_checks_like_every_tuple(s):
    bol = with_lie_triple(malcev_to_bol(OCTONIONS, diagonal(s)))
    assert len(bol._symmetry()) == (168 if s == SIGNS[0] else 24)
    assert_like_every_tuple(bol, suites("hom_bol", "bol"), exponents=(1, 2))
    assert not check_suite(bol, "hom_bol").passed


def test_symbolic_octonions_check_like_every_tuple():
    p = Scalar.parameter("p")
    scaled = OCTONIONS.replace(binary=tensor(7, 2, lambda idx: tuple(p * c for c in cell_at(OCTONIONS.binary, idx))))
    assert len(scaled._symmetry()) == 168
    assert_like_every_tuple(scaled, suites("malcev", "bol"))


def test_direct_sums_of_so3_check_like_every_tuple():
    so3 = parse_algebra(CROSS_LIE_DOC)
    bol = malcev_to_bol(so3)
    for alg in (direct_sum(so3, so3), direct_sum(bol, bol), direct_sum(bol, with_lie_triple(bol))):
        assert len(alg._symmetry()) > 1
        assert_like_every_tuple(alg, suites("malcev", "bol"))


@pytest.mark.parametrize("name, alg", catalog(), ids=[name for name, _ in catalog()])
def test_the_catalog_checks_like_every_tuple(name, alg):
    assert_like_every_tuple(alg, exponents=(0, 1, 2))


@pytest.mark.parametrize("case", METAMORPHIC, ids=[case[0] for case in METAMORPHIC])
def test_the_metamorphic_cases_check_like_every_tuple(case):
    _, alg, _, PQ = case
    assert_like_every_tuple(alg)
    assert_like_every_tuple(transport(alg, *PQ) if alg.dim < 4 else tampered(alg))


@pytest.mark.parametrize("dim, seed, symbolic", [(3, 1, False), (4, 1, False), (3, 2, True)])
def test_seeded_algebras_check_like_every_tuple(dim, seed, symbolic):
    alg = _algebra(dim, seed, symbolic)
    for kinds in ((), ("binary", "ternary")) if symbolic else ((), ("binary",), ("binary", "ternary")):
        assert_like_every_tuple(skewed(alg, kinds) if kinds else alg)


# its swap of x and y holds modulo skew binary or skew ternary products
EITHER_SKEW = parse_identity("{x*y,z,w} + {z,y*x,w} = 0", "either_skew")
# identities of four or more variables with other swaps and nestings
EXTRA = [
    parse_identity("(x*y)*(z*w) + (z*w)*(x*y) = 0", "commuting_products"),
    parse_identity("{x,y,{z,w,v}} + {y,x,{z,w,v}} = 0", "skew_outer_pair"),
    parse_identity("cyc(x,y,z; {x,y,A(z*u)}) = cyc(x,y,z; u*{x,y,z})", "cyclic_mix"),
    EITHER_SKEW,
]


def averaged(rng, dim, gens, skew):
    """A random sparse algebra made invariant under the group that the
    signed permutations gens, (pi, s) with e_i -> s_i e_pi(i), generate:
    each random coordinate is added with its image under every element, and
    when skew, minus the image with the first two indices swapped."""
    group = frontier = {(tuple(range(dim)), (1,) * dim)}
    while frontier:
        frontier = {
            (tuple(p[q[i]] for i in range(dim)), tuple(t[i] * s[q[i]] for i in range(dim)))
            for q, t in frontier
            for p, s in gens
        } - group
        group = group | frontier

    def cells(arity):
        t = {}
        for _ in range(rng.randint(2, 6)):
            idx, k = tuple(rng.randrange(dim) for _ in range(arity)), rng.randrange(dim)
            c = F(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))
            for p, s in group:
                sign = 1
                for i in idx + (k,):
                    sign *= s[i]
                image = tuple(p[i] for i in idx)
                t.setdefault(image, [0] * dim)[p[k]] += sign * c
                if skew:
                    t.setdefault((image[1], image[0]) + image[2:], [0] * dim)[p[k]] -= sign * c
        return tensor(dim, arity, lambda idx: t.get(idx, (0,) * dim))

    scale = rng.choice((1, 2))  # a multiple of the identity commutes with every signed permutation
    twist = LinearMap(tuple(tuple(scale * int(i == j) for j in range(dim)) for i in range(dim)))
    return HomAlgebra(dim, binary=cells(2), ternary=cells(3), twist=twist)


def seeded_group_algebras(seed):
    """Two random algebras, the second skew, invariant under one seeded
    signed permutation of dimension 3 + seed % 3."""
    rng = random.Random(f"orbits/{seed}")
    dim = 3 + seed % 3
    perm = tuple(rng.sample(range(dim), dim))
    if perm == tuple(range(dim)):
        perm = perm[1:] + perm[:1]
    gens = [(perm, tuple(rng.choice((1, -1)) for _ in range(dim)))]
    return [averaged(rng, dim, gens, skew) for skew in (False, True)]


@pytest.mark.parametrize("dim, seed, symbolic", [(3, 1, False), (4, 1, False), (3, 2, True)])
def test_a_swap_modulo_skew_ternary_products_alone_checks_like_every_tuple(dim, seed, symbolic):
    alg = skewed(_algebra(dim, seed, symbolic), ("ternary",))
    assert alg._skew_kinds() == ("ternary",)
    # the swap of sign -1 keeps the tuples with x < y only
    assert identities._Orbits(alg, EITHER_SKEW).checks == ((0, 1, True),)
    assert_like_every_tuple(alg, [EITHER_SKEW], exponents=(1, 2))
    assert check_identity(alg, EITHER_SKEW) is not None


@pytest.mark.parametrize("seed", range(6))
def test_random_algebras_with_a_signed_permutation_group_check_like_every_tuple(seed):
    for skew, alg in enumerate(seeded_group_algebras(seed)):
        assert len(alg._symmetry()) > 1 and ("ternary" in alg._skew_kinds()) >= skew
        assert_like_every_tuple(alg, [i for i in IDENTITIES if len(i.variables) > 3] + EXTRA, exponents=(1, 2))


# --- the blocks ---------------------------------------------------------------------


def kernel_calls(monkeypatch, alg, ident):
    """The result of one check and the binary and ternary products it makes
    after the algebra's symmetry is found."""
    alg._symmetry()
    calls = Counter()
    for kind in ("_binary", "_ternary"):
        kernel = getattr(HomAlgebra, kind)
        monkeypatch.setattr(HomAlgebra, kind, lambda self, *args, k=kind, f=kernel: calls.update([k]) or f(self, *args))
    got = check_identity(alg, ident)
    monkeypatch.undo()
    return got, dict(calls)


def test_a_block_builds_its_tables_only_on_the_indices_of_its_kept_tuples(monkeypatch):
    malcev, derivation = SUITES["malcev"].identities[1], SUITES["bol"].identities[4]
    assert kernel_calls(monkeypatch, OCTONIONS, malcev) == (None, {"_binary": 651})
    assert kernel_calls(monkeypatch, octonions(), malcev) == (None, {"_binary": 651})
    assert kernel_calls(monkeypatch, malcev_to_bol(OCTONIONS), derivation) == (None, {"_ternary": 208})


def test_the_blocks_pinned_to_zero_find_a_failure_there_first(monkeypatch):
    # the nested blocks that pin the leading indices to 0 come first, so a
    # failure at the zero tuple is found before any full block is built;
    # without them this check makes 984 binary products before it fails
    got, calls = kernel_calls(monkeypatch, _algebra(4, 1, symbolic=True), SUITES["malcev"].identities[1])
    assert got.indices == (0, 0, 0, 0) and calls == {"_binary": 15}


def blocks(orbits, dim):
    """The pinned prefixes of check_identity's blocks, with their domains."""
    for prefix in [(0,) * k for k in range(orbits.m, 1, -1)] + [(i,) for i in range(dim)]:
        yield prefix, orbits.domains(prefix)


BOX_ALGEBRAS = {
    **{f"octonions/{k}": OCTONIONS.replace(twist=diagonal(s)) for k, s in enumerate(SIGNS)},
    **{f"octonion-bol/{k}": malcev_to_bol(OCTONIONS, diagonal(s)) for k, s in enumerate(SIGNS)},
    "octonion-bol-lie-triple": with_lie_triple(malcev_to_bol(OCTONIONS)),
    **{f"seeded/{seed}/{k}": alg for seed in range(6) for k, alg in enumerate(seeded_group_algebras(seed))},
}


@pytest.mark.parametrize("alg", BOX_ALGEBRAS.values(), ids=BOX_ALGEBRAS)
def test_every_kept_tuple_lies_in_the_domains_of_its_block_and_each_index_there_is_used(alg):
    listed = 0
    for ident in [i for i in IDENTITIES if len(i.variables) > 3] + EXTRA:
        orbits = identities._Orbits(alg, ident)
        m = orbits.m
        for prefix, box in blocks(orbits, alg.dim):
            if orbits.reps is None:  # only the pinned indices narrow the domains
                assert box is None or box == [range(i, i + 1) for i in prefix] + [range(alg.dim)] * (m - len(prefix))
                continue
            block = [r for r in orbits.reps if r[: len(prefix)] == prefix]
            if not block:
                assert box is None
                continue
            assert all(r[p] in box[p] for r in block for p in range(m)), (ident.name, prefix)
            assert all(any(r[p] == i for r in block) for p in range(m) for i in box[p]), (ident.name, prefix)
        listed += orbits.reps is not None
    assert listed


def position_group(m, swaps):
    """The permutations of range(m) that the transpositions (p, q) of swaps
    generate."""
    group = frontier = {tuple(range(m))}
    while frontier:  # p < q in each swap
        frontier = {s[:p] + (s[q],) + s[p + 1 : q] + (s[p],) + s[q + 1 :] for s in frontier for p, q, _ in swaps} - group
        group = group | frontier
    return group


# a cheap subset of BOX_ALGEBRAS: both octonion groups, a failing Bol algebra and every seeded group
LEAST = ["octonions/0", "octonion-bol/3", "octonion-bol-lie-triple"] + [k for k in BOX_ALGEBRAS if k.startswith("seeded")]


@pytest.mark.parametrize("name", LEAST)
def test_the_kept_tuples_are_least_under_the_automorphisms_and_hold_every_orbits_least_tuple(name):
    """Brute force, on the identities of four or more variables: every kept
    tuple is least under ``alg._symmetry()`` alone and passes the in-order
    checks, and the least tuple of every orbit of the index group times the
    position permutations that the swaps generate is kept, unless a swap of
    sign -1 fixes it (its residual is zero)."""
    alg = BOX_ALGEBRAS[name]
    group, dim = alg._symmetry(), alg.dim
    assert len(group) > 1
    for ident in [i for i in IDENTITIES + EXTRA if len(i.variables) >= 4]:
        orbits = identities._Orbits(alg, ident)
        reps, m = orbits.reps, orbits.m
        assert reps is not None, ident.name
        for r in reps:
            assert all(tuple(g[i] for i in r) >= r for g in group), (ident.name, r)
            assert all(r[a] < r[b] if strict else r[a] <= r[b] for a, b, strict in orbits.checks), (ident.name, r)
        swaps = identities._symmetries(ident, alg._skew_kinds())
        shuffles, seen, least = position_group(m, swaps), set(), []
        for t in itertools.product(range(dim), repeat=m):  # lexicographic: an orbit's first tuple is its least
            if t not in seen:
                least.append(t)
                seen.update(tuple(g[t[s[p]]] for p in range(m)) for g in group for s in shuffles)
        for t in least:
            fixed = any(sign < 0 and t[p] == t[q] for p, q, sign in swaps)
            assert fixed or t in reps, (ident.name, t)


# --- the listing, against is_morphism ---------------------------------------------------

SO3 = parse_algebra(CROSS_LIE_DOC)
VERIFIED = {**BOX_ALGEBRAS, **dict(catalog()), "so3+so3": direct_sum(SO3, SO3)}


def solved_signs(alg, perm):
    """A sign vector s such that g e_i = s_i e_perm(i) carries every
    coordinate of ``algebra._coordinates`` to its image with the sign of the
    product of s over its indices, solved over GF(2) with ``algebra._solve``
    and each free sign +1; None when there is none."""
    coords, eqs = algebra._coordinates(alg), {}
    for (kind, t), c in coords.items():
        moved, mask = coords.get((kind, tuple(perm[x] for x in t))), 0
        for x in t:
            mask ^= 1 << x
        if not algebra._solve(eqs, mask, 0 if moved == c else 1 if moved == -c else None):
            return None
    bits = 0
    for top in sorted(eqs):  # each equation's other bits are below its leading one
        mask, eps = eqs[top]
        if eps ^ (mask & bits).bit_count() & 1:
            bits |= top
    return tuple(-1 if bits >> i & 1 else 1 for i in range(alg.dim))


@pytest.mark.parametrize("name, alg", VERIFIED.items(), ids=VERIFIED)
def test_the_listed_group_is_closed_and_each_element_solves_to_an_automorphism(name, alg):
    """``_symmetry()`` is sorted with the identity first and closed under
    composition; each listed pi, with signs solved on the coordinates, is a
    map that is_morphism accepts; and up to dimension 4 the listed pis are
    those of every signed permutation that is_morphism accepts."""
    group, dim = alg._symmetry(), alg.dim
    assert group[0] == tuple(range(dim)) and list(group) == sorted(group)
    assert {tuple(q[i] for i in p) for p in group for q in group} == set(group)
    for perm in group:
        assert is_morphism(signed(perm, solved_signs(alg, perm)), alg, alg), perm
    if dim <= 4:
        found = {
            perm
            for perm in itertools.permutations(range(dim))
            if any(is_morphism(signed(perm, signs), alg, alg) for signs in itertools.product((1, -1), repeat=dim))
        }
        assert found == set(group)


def test_the_shift_is_in_the_octonions_group_and_not_in_a_sign_twisted_ones():
    oct_ = octonions()  # the lines (i, i+1, i+3) mod 7: the shift is a collineation
    shift, plus = tuple((i + 1) % 7 for i in range(7)), (1,) * 7
    assert is_morphism(signed(shift, plus), oct_, oct_) and solved_signs(oct_, shift) == plus
    assert shift in oct_._symmetry()
    # an automorphism of the product that does not commute with a sign twist
    twisted = oct_.replace(twist=diagonal([1 if i in (0, 1, 3) else -1 for i in range(7)]))
    g = signed(shift, plus)
    assert is_weak_morphism(g, twisted, twisted) and not is_morphism(g, twisted, twisted)
    assert solved_signs(twisted, shift) is None and shift not in twisted._symmetry()


@pytest.mark.parametrize("n, order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120), (6, 720), (7, 1), (8, 1)])
def test_the_zero_algebra_lists_every_index_permutation_up_to_the_budget(n, order):
    # n! index permutations: 7! = 5,040 is past SYMMETRY_BUDGET
    assert len(HomAlgebra(n)._symmetry()) == order


def test_sums_of_so3_list_their_group_level_by_level_up_to_the_budget():
    # the index group of so(3)^k is the 3! permutations of each summand's
    # basis times the k! permutations of the summands: 72, 1,296, then 31,104
    two = direct_sum(SO3, SO3)
    three = direct_sum(two, SO3)
    four = direct_sum(three, SO3)
    assert [len(alg._symmetry()) for alg in (two, three)] == [72, 1296]
    assert four._symmetry() == (tuple(range(12)),)
