"""End-to-end acceptance checks, one test per supported claim.

Each test prints a single "criterion N: PASS/FAIL" line and then asserts.
The scale-only twist family e1 -> e1, e2 -> b*e2 of the rigid ternary type
A3 ([e1,e2,e2] = sign*e1) sends that constant to sign*e1 while the images
give b^2*sign*e1, so it is an endomorphism exactly when b^2 = 1.  The
criteria that involve it (2, 3 and 5) therefore check the Yau-twist and
derived-algebra theorems at b = 1 and b = -1, where their hypothesis holds,
and assert the exact obstruction at a free b: the b^2 = 1 residual, and
nothing else, is what fails.
"""

import itertools
import random
from fractions import Fraction as F

from hombol.algebra import HomAlgebra, LinearMap, Vector, zero_tensor
from hombol.catalog import build, cross_check, get, get_twisted, names
from hombol.constructions import hom_jacobian, malcev_to_bol, nth_derived, self_twist, sequence_member, yau_twist
from hombol.errors import PreconditionError
from hombol.identities import SUITES, check_identity, check_suite, evaluate
from hombol.morphisms import DEFAULT_GRID, FAMILY_CANDIDATES, generate_constraints, grid_search, verify_candidate
from hombol.scalars import Scalar
from hombol.serialization import emit_algebra, parse_algebra

CROSS_LIE_DOC = (
    "dim 3\nbasis e1 e2 e3\ncomplete skew-binary\n"
    "binary e1 e2 = e3\nbinary e2 e3 = e1\nbinary e3 e1 = e2\n"
)


def _verdict(number, failures, detail_pass):
    if failures:
        line = f"criterion {number}: FAIL - " + "; ".join(failures)
    else:
        line = f"criterion {number}: PASS - {detail_pass}"
    print(line)
    assert not failures, line


def _all_catalog():
    return [
        ("A1", get("A1")),
        ("A2", get("A2")),
        ("A3+", get("A3", sign="+")),
        ("A3-", get("A3", sign="-")),
        ("HB_A2", get_twisted("HB_A2")),
        ("HB_A3+", get_twisted("HB_A3", sign="+")),
    ]


def test_criterion_01_bol_on_untwisted_entries():
    failures = []
    for label, alg in [
        ("A1", get("A1")),
        ("A2 (symbolic lambda)", get("A2")),
        ("A3 sign +", get("A3", sign="+")),
        ("A3 sign -", get("A3", sign="-")),
    ]:
        report = check_suite(alg, "bol")
        if not report.passed:
            ce = report.failures[0]
            failures.append(f"{label}: {ce.describe(alg.basis)}")
    _verdict(1, failures, "BOL holds on A1, A2 (symbolic), and A3 with either sign")


def _scale_e2(b):
    return LinearMap.from_columns(((1, 0), (0, b)))


def test_criterion_02_yau_twist_closure():
    failures = []
    shear_scale = LinearMap.from_columns(
        ((Scalar.rational(1), Scalar.parameter("a")), (0, Scalar.parameter("b")))
    )
    twisted_a2 = yau_twist(get("A2"), shear_scale)
    report = check_suite(twisted_a2, "hom_bol")
    if not report.passed:
        ce = report.failures[0]
        failures.append(f"twisted A2: {ce.describe(twisted_a2.basis)}")

    b = Scalar.parameter("b")
    for sign, s in (("+", 1), ("-", -1)):
        a3 = get("A3", sign=sign)
        # the scale-only family is an endomorphism of A3 exactly at b = +-1
        for scale in (1, -1):
            twisted_a3 = yau_twist(a3, _scale_e2(scale))
            report = check_suite(twisted_a3, "hom_bol")
            if not report.passed:
                ce = report.failures[0]
                failures.append(
                    f"A3{sign} twisted at b = {scale}: {ce.describe(twisted_a3.basis)}, residual {ce.residual}"
                )
        # at a free b the hypothesis fails: beta([e1,e2,e2]) - [e1, b*e2, b*e2] = s*(1 - b^2)*e1
        obstruction = f"ternary product at (e1, e2, e2) differs by {Vector((s * (1 - b**2), 0))}"
        try:
            yau_twist(a3, _scale_e2(b))
        except PreconditionError as exc:
            if obstruction not in str(exc):
                failures.append(f"A3{sign} at free b: refused with {exc}, expected {obstruction!r}")
        else:
            failures.append(f"A3{sign} at free b: the endomorphism gate accepted the scale map")
    _verdict(
        2,
        failures,
        "twisted A2 (symbolic a, b) and A3 twisted at b = 1 and b = -1 (either sign) satisfy Hom-Bol; "
        "the gate refuses a free b at the ternary cell (e1, e2, e2) with residual sign*(1 - b^2)*e1",
    )


def test_criterion_03_derived_algebras_stay_hom_bol():
    failures = []
    passers = [("HB_A2", get_twisted("HB_A2"))] + [
        (f"HB_A3{sign} b={b}", get_twisted("HB_A3", b=F(b), sign=sign))
        for sign in ("+", "-")
        for b in (1, -1)
    ]
    for label, alg in passers:
        for n in range(5):
            report = check_suite(nth_derived(alg, n), "hom_bol")
            if not report.passed:
                ce = report.failures[0]
                failures.append(f"{label} derived order {n}: {ce.describe(alg.basis)}, residual {ce.residual}")
                break

    # at a free b the derived twist is diag(1, b^(2^n)), so only its
    # compatibility with [e1,e2,e2] = e1 can fail, by (1 - b^(2^(n+1)))*e1
    free = get_twisted("HB_A3", sign="+")
    b = Scalar.parameter("b")
    for n in range(5):
        results = dict(check_suite(nth_derived(free, n), "hom_bol").results)
        failing = sorted(name for name, ce in results.items() if ce is not None)
        want = Vector((1 - b ** (2 ** (n + 1)), 0))
        if failing != ["twist_respects_ternary"]:
            failures.append(f"HB_A3+ free b derived order {n}: failing identities {failing}")
            continue
        ce = results["twist_respects_ternary"]
        if ce.indices != (0, 1, 1) or ce.residual != want:
            failures.append(
                f"HB_A3+ free b derived order {n}: {ce.describe(free.basis)}, residual {ce.residual}, expected {want}"
            )
    _verdict(
        3,
        failures,
        "derived algebras of HB_A2 and of HB_A3 at b = 1 and b = -1 pass Hom-Bol for n = 0..4; "
        "at a free b only twist_respects_ternary at (e1, e2, e2) fails, by (1 - b^(2^(n+1)))*e1",
    )


SAGLE_DOC = (
    "dim 4\nbasis e1 e2 e3 e4\ncomplete skew-binary\n"
    "binary e1 e2 = -e2\nbinary e1 e3 = -e3\nbinary e1 e4 = e4\nbinary e2 e3 = 2*e4\n"
)


def test_twist_closure_on_sagle_malcev_algebra():
    """Yau twist and derived algebras on Sagle's 4-dim non-Lie Malcev algebra.

    e1e2 = -e2, e1e3 = -e3, e1e4 = e4, e2e3 = 2e4, skew-completed.  A
    diagonal map diag(p1, p2, p3, p4) sends every zero cell to zero, so it
    is an automorphism iff it respects the four nonzero cells:
    p2 = p1p2, p3 = p1p3, p4 = p1p4 and p4 = p2p3.  Taking p1 = 1 leaves
    p4 = p2p3, so beta = diag(1, 2, 3, 6) is one, with distinct entries.
    Here, unlike on the 2-dim catalog, the associated Bol algebra's axioms
    do not degenerate: a wrong power of beta on either product of the Yau
    twist, or a wrong derived exponent, breaks Hom-Bol.
    """
    alg = parse_algebra(SAGLE_DOC)
    assert check_suite(alg, "malcev").passed
    assert not check_suite(alg, "hom_lie").passed  # not a Lie algebra

    beta = LinearMap.from_columns(((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 6)))
    twisted = malcev_to_bol(alg, beta)
    assert twisted.twist == beta
    for n in range(4):  # order 0 is the twisted algebra itself
        report = check_suite(nth_derived(twisted, n), "hom_bol")
        assert report.passed, f"derived order {n}: {report.failures[0].describe(alg.basis)}"


def test_criterion_04_derived_recursion_and_jacobian_law():
    failures = []
    for label, alg in _all_catalog():
        for n in range(4):
            if nth_derived(alg, n + 1) != nth_derived(nth_derived(alg, n), 1):
                failures.append(f"{label}: recursion breaks at order {n}")
                break
        base = hom_jacobian(alg)
        for n in range(4):
            scaled = alg.twist.power(2 * (2**n - 1))
            table = hom_jacobian(nth_derived(alg, n))
            dim = alg.dim
            ok = all(
                table[i][j][k] == scaled.apply(base[i][j][k])
                for i in range(dim)
                for j in range(dim)
                for k in range(dim)
            )
            if not ok:
                failures.append(f"{label}: Jacobian scaling law breaks at order {n}")
                break
    _verdict(
        4,
        failures,
        "derived recursion and the Jacobian scaling law hold for n = 0..3 on every catalog entry",
    )


def test_criterion_05_self_morphism_solver():
    failures = []
    solutions = grid_search(generate_constraints(get("A1")), DEFAULT_GRID)
    if not (
        len(solutions) == 2
        and solutions[0].is_zero()
        and solutions[1] == LinearMap.identity(2)
    ):
        failures.append(f"A1 grid returned {len(solutions)} map(s), expected zero and identity only")

    system_a2 = generate_constraints(get("A2"))
    for family in ("annihilate_e2", "shear_and_scale"):
        bad = verify_candidate(system_a2, FAMILY_CANDIDATES[family])
        if bad is not None:
            failures.append(f"A2 family {family}: residual {bad.residual}")

    b2 = Scalar.parameter("b2")
    locus = b2**2 - 1
    for sign in ("+", "-"):
        system_a3 = generate_constraints(get("A3", sign=sign))
        for value in (1, -1):
            # bind the family parameter b2 in every entry, on a fresh dict
            bound = {name: entry.substitute({"b2": value}) for name, entry in FAMILY_CANDIDATES["scale_e2"].items()}
            bad = verify_candidate(system_a3, bound)
            if bad is not None:
                failures.append(f"A3{sign} family scale_e2 at b2 = {value}: residual {bad.residual}")
        free = FAMILY_CANDIDATES["scale_e2"]
        left = {eq.substitute(free) for eq in system_a3.equations} - {Scalar.rational(0)}
        if left != {locus, -locus}:
            failures.append(
                f"A3{sign} family scale_e2 with free b2 leaves {sorted(map(str, left))}, expected +-({locus})"
            )
    _verdict(
        5,
        failures,
        "solver reproduces the A1 grid and the A2 families; the A3 scale_e2 family verifies at b2 = 1 and b2 = -1 "
        "and at a free b2 reduces the system to +-(b2^2 - 1), whose roots are exactly +-1",
    )


def test_criterion_06_cross_check_flags_quoted_forms():
    failures = []
    base = cross_check("HB_A2", 0)
    flagged = {row.label for row in base.mismatches}
    if "ternary e1 e2 e1" not in flagged:
        failures.append("order 0 report does not flag the printed ternary coefficient")
    for n in range(5):
        report = cross_check("HB_A2", n)
        by_label = {}
        for row in report.rows:
            by_label.setdefault(row.label, []).append(row)
        if not all(row.match for row in by_label["alpha e1"] + by_label["alpha e2"]):
            failures.append(f"order {n}: twist rows should match, including the geometric sum")
        if n >= 1 and {row.label for row in report.mismatches} != {"binary e1 e2", "ternary e1 e2 e1"}:
            failures.append(f"order {n}: expected exactly the binary and ternary rows to disagree")
    sign_report = cross_check("HB_A3", 1, sign="+")
    if "ternary e1 e2 e2" not in {row.label for row in sign_report.mismatches}:
        failures.append("the sign of the rigid-type cell is not flagged")
    _verdict(
        6,
        failures,
        "cross-check matches the twist rows for n = 0..4 and flags the quoted ternary coefficient, derived binary exponent, and sign",
    )


def _random_tensor(rng, dim, arity):
    def cell():
        return tuple(
            Scalar.rational(rng.randint(-3, 3), rng.choice((1, 1, 2)))
            for _ in range(dim)
        )

    if arity == 2:
        return tuple(tuple(cell() for _ in range(dim)) for _ in range(dim))
    return tuple(
        tuple(tuple(cell() for _ in range(dim)) for _ in range(dim)) for _ in range(dim)
    )


_PAIRS = (
    ("skew_binary", "skew_binary"),
    ("skew_ternary", "skew_ternary"),
    ("ternary_jacobi", "ternary_jacobi"),
    ("binary_derivation", "twisted_binary_derivation"),
    ("ternary_derivation", "twisted_ternary_derivation"),
)


def test_criterion_07_identity_twist_reduction_and_triple_systems():
    failures = []
    rng = random.Random(129)
    for index in range(20):
        dim = 2 if index % 2 == 0 else 3
        alg = HomAlgebra(
            dim=dim,
            basis=tuple(f"e{i + 1}" for i in range(dim)),
            binary=_random_tensor(rng, dim, 2),
            ternary=_random_tensor(rng, dim, 3),
            twist=LinearMap.identity(dim),
        )
        plain = dict(check_suite(alg, "bol").results)
        twisted = dict(check_suite(alg, "hom_bol").results)
        for name in ("twist_respects_binary", "twist_respects_ternary"):
            if twisted[name] is not None:
                failures.append(f"sample {index}: identity twist flagged as non-multiplicative")
        for bol_name, hom_name in _PAIRS:
            a, b = plain[bol_name], twisted[hom_name]
            same = (a is None and b is None) or (
                a is not None and b is not None and a.indices == b.indices and a.residual == b.residual
            )
            if not same:
                failures.append(f"sample {index}: {bol_name} and {hom_name} disagree at the identity twist")

    passers = [
        ("A1", get("A1")),
        ("A2 lam=2", get("A2", lam=F(2))),
        ("A3+ lam=1", get("A3", lam=F(1), sign="+")),
        ("HB_A2 a=1 b=2", get_twisted("HB_A2", lam=F(1), a=F(1), b=F(2))),
        (
            "malcev diag",
            malcev_to_bol(
                parse_algebra(CROSS_LIE_DOC),
                LinearMap.from_columns(((1, 0, 0), (0, -1, 0), (0, 0, -1))),
            ),
        ),
    ]
    for label, alg in passers:
        if not check_suite(alg, "hom_bol").passed:
            failures.append(f"{label}: expected a Hom-Bol passer")
            continue
        stripped = alg.replace(binary=zero_tensor(alg.dim, 2))
        report = check_suite(stripped, "hom_lie_triple", twist_exponent=2)
        if not report.passed:
            ce = report.failures[0]
            failures.append(f"{label}: ternary part fails the triple-system suite, {ce.describe(alg.basis)}")
    _verdict(
        7,
        failures,
        "plain and twisted suites coincide on 20 random identity-twist algebras; ternary parts of Hom-Bol passers are triple systems for the squared twist",
    )


def test_criterion_08_malcev_to_bol_bridge():
    failures = []
    lie = parse_algebra(CROSS_LIE_DOC)
    bol = malcev_to_bol(lie)
    if not check_suite(bol, "bol").passed:
        failures.append("associated ternary product does not satisfy BOL")
    e = [Vector.basis(i, 3) for i in range(3)]
    for i, j, k in itertools.product(range(3), repeat=3):
        want = lie.eval_binary(lie.eval_binary(e[i], e[j]), e[k])
        if bol.eval_ternary(e[i], e[j], e[k]) != want:
            failures.append(f"ternary product differs from (x*y)*z at {(i, j, k)}")
            break
    beta = LinearMap.from_columns(((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    if not check_suite(malcev_to_bol(lie, beta), "hom_bol").passed:
        failures.append("diagonally twisted version does not satisfy Hom-Bol")
    _verdict(
        8,
        failures,
        "the cross-product bracket yields a Bol algebra with ternary (x*y)*z, Hom-Bol after the diagonal twist",
    )


def _bump(alg, tensor_name, index, coord):
    tensor = getattr(alg, tensor_name)
    flat = [list(map(list, plane)) if tensor_name == "ternary" else list(map(list, plane)) for plane in tensor]
    if tensor_name == "binary":
        i, j = index
        cell = list(flat[i][j])
        cell[coord] = Scalar.rational(1) + cell[coord]
        flat[i][j] = cell
        rebuilt = tuple(tuple(tuple(c) for c in plane) for plane in flat)
    else:
        i, j, k = index
        cell = list(flat[i][j][k])
        cell[coord] = Scalar.rational(1) + cell[coord]
        flat[i][j][k] = cell
        rebuilt = tuple(tuple(tuple(tuple(c) for c in row) for row in plane) for plane in flat)
    return alg.replace(**{tensor_name: rebuilt})


def test_criterion_09_randomized_evaluation_and_tamper_detection():
    failures = []
    rng = random.Random(977)
    samples = [
        ("bol", get("A3", lam=F(2), sign="-")),
        ("hom_bol", get_twisted("HB_A2", lam=F(1), a=F(1), b=F(2))),
        ("hom_akivis", get_twisted("HB_A2", lam=F(3), a=F(0), b=F(-2))),
        ("hom_lie", get("A1")),
        ("malcev", parse_algebra(CROSS_LIE_DOC)),
        ("hom_alt", get("A1")),
        ("hom_flex", get("A1")),
        ("hom_lie_triple", get("A1")),
    ]
    for suite_name, alg in samples:
        for ident in SUITES[suite_name].identities:
            ce = check_identity(alg, ident)
            nonzero = 0
            for _ in range(100):
                env = {
                    v: Vector(tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(alg.dim)))
                    for v in ident.variables
                }
                residual = evaluate(ident.lhs, alg, env) - evaluate(ident.rhs, alg, env)
                if not residual.is_zero():
                    nonzero += 1
            if ce is None and nonzero:
                failures.append(f"{suite_name}/{ident.name}: basis check passes but {nonzero} random tuples differ")
            if ce is not None and not nonzero:
                failures.append(f"{suite_name}/{ident.name}: basis check fails but no random tuple does")

    a1 = get("A1")
    unbroken = []
    for tensor_name, rank in (("binary", 2), ("ternary", 3)):
        for index in itertools.product(range(2), repeat=rank):
            for coord in range(2):
                tampered = _bump(a1, tensor_name, index, coord)
                if check_suite(tampered, "bol").passed:
                    unbroken.append((tensor_name, index, coord))
    if unbroken:
        failures.append(f"{len(unbroken)} single-constant tamperings kept BOL intact: {unbroken[:3]}")
    _verdict(
        9,
        failures,
        "random vector evaluations agree with every basis verdict; all 32 single-constant tamperings of A1 break BOL",
    )


def test_criterion_10_serialization_round_trip():
    failures = []
    samples = []
    for name in names():
        alg = build(name, sign="+") if name in ("A3", "HB_A3") else build(name)
        samples.append((name, alg))
    hb2 = get_twisted("HB_A2")
    lie = parse_algebra(CROSS_LIE_DOC)
    samples += [
        ("derived HB_A2 n=2", nth_derived(hb2, 2)),
        ("self-twisted HB_A2", self_twist(hb2, hb2.twist, 1)),
        ("sequence member n=3", sequence_member(hb2, None, 3)),
        ("malcev bridge", malcev_to_bol(lie)),
        (
            "malcev bridge twisted",
            malcev_to_bol(lie, LinearMap.from_columns(((1, 0, 0), (0, -1, 0), (0, 0, -1)))),
        ),
    ]
    for label, alg in samples:
        text = emit_algebra(alg)
        back = parse_algebra(text)
        if back != alg or back.twist != alg.twist:
            failures.append(f"{label}: parse(emit) is not the identity")
            continue
        if emit_algebra(back) != text:
            failures.append(f"{label}: emission is not byte-stable")
    _verdict(10, failures, f"emit/parse round trip is byte-stable on {len(samples)} documents")
