"""Seeded job generators and independent references for the three workloads.

A workload is a pool of cases.  A case is a short chain of ``hombol`` CLI
jobs on one generated input, built by ``make_case(workload, case_seed)``:
the same case seed always gives the same documents and argv.  A run draws
its case seeds from ``range(POOL_SIZE[workload])`` in an order fixed by the
run's ``--seed``, so every job a run can execute has a stdout digest
recorded at the seed commit (``digests/<workload>.json``), and no job
repeats within a run.

Documents are written here in hombol's public text formats, with this
module's own formatting code, and every expected verdict and count is
computed here with plain ``fractions.Fraction`` arithmetic.  Nothing in this
module imports hombol.

Job mix of one case:

    octonion-sparse     the 7-dim octonion cross product, relabelled, and a
                        sign automorphism beta: check malcev (pass), check
                        hom_lie (FAIL), malcev2bol --map beta, check hom_bol
                        on it (pass), malcev2bol, check bol on it (pass)
    symbolic-tower      catalog emit HB_A2 (lambda bound); derive --n k and
                        check hom_bol on it for k = 1..6; crosscheck HB_A2
                        --n 13 and --n 8; catalog emit HB_A3 and check
                        hom_bol on it; crosscheck HB_A3 --n 8
    morphism-grid       morphisms --grid=-1,0,1 on a scaled, relabelled
                        so(3) (25 solutions); morphisms on A1, and with
                        --bind lambda on A2 and A3 (7-value grid)

Within a workload every case has the same cost structure; the seed varies
only choices that leave the cost nearly unchanged, so runs with different
seeds measure about the same work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from functools import cache, partial

WORKLOADS = ("octonion-sparse", "symbolic-tower", "morphism-grid")

# Cases a run may draw from.  Sized so that a run of the configured length
# does not exhaust its pool even if the program gets several times faster;
# a run that does exhaust it stops early (see run.py).
POOL_SIZE = {
    "octonion-sparse": 24,
    "symbolic-tower": 40,
    "morphism-grid": 240,
}

# hombol's DEFAULT_GRID, restated so the 2-dim brute force is independent.
DEFAULT_GRID = (F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2))


@dataclass
class Job:
    """One CLI call.  ``argv`` may name inputs as ``{name}``; each input is a
    document text, or the index of an earlier job of the same case whose
    stdout is the document."""

    argv: list
    inputs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Case:
    seed: int
    jobs: list


# ---------------------------------------------------------------------------
# exact sparse algebra, independent of hombol
#
# A vector is a dict {index: Fraction} without zero entries; a binary tensor
# is a dict {(i, j): vector}; a ternary tensor a dict {(i, j, k): vector}.


def _vadd(acc, v, scale=F(1)):
    for k, c in v.items():
        s = acc.get(k, 0) + scale * c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def _mul(table, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            cell = table.get((i, j))
            if cell:
                _vadd(out, cell, a * b)
    return out


def _mul3(table, u, v, w):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in w.items():
                cell = table.get((i, j, k))
                if cell:
                    _vadd(out, cell, a * b * c)
    return out


def _apply(cols, v):
    """Matrix given by its columns (vectors) applied to v."""
    out = {}
    for j, c in v.items():
        _vadd(out, cols[j], c)
    return out


def _unit(i):
    return {i: F(1)}


def is_endomorphism(cols, binary, ternary, dim):
    """theta(x*y) = theta(x)*theta(y) and likewise for the ternary product,
    on all basis pairs and triples."""
    for i, j in itertools.product(range(dim), repeat=2):
        if _apply(cols, binary.get((i, j), {})) != _mul(binary, cols[i], cols[j]):
            return False
    for i, j, k in itertools.product(range(dim), repeat=3):
        if _apply(cols, ternary.get((i, j, k), {})) != _mul3(ternary, cols[i], cols[j], cols[k]):
            return False
    return True


def _jacobiator(table, x, y, z):
    out = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        _vadd(out, _mul(table, _mul(table, a, b), c))
    return out


def lie_malcev_facts(table, dim):
    """(anticommutative, Lie, Malcev) for a binary product, decided on basis
    tuples.  Malcev is checked in its full linearization
    J(x,y,w*z) + J(w,y,x*z) = J(x,y,z)*w + J(w,y,z)*x."""
    e = [_unit(i) for i in range(dim)]
    anti = all(
        _vadd(dict(table.get((i, j), {})), table.get((j, i), {})) == {}
        for i, j in itertools.product(range(dim), repeat=2)
    )
    lie = all(
        not _jacobiator(table, e[i], e[j], e[k])
        for i, j, k in itertools.product(range(dim), repeat=3)
    )
    jac = {
        (i, j, k): _jacobiator(table, e[i], e[j], e[k])
        for i, j, k in itertools.product(range(dim), repeat=3)
    }
    malcev = True
    for x, y, w, z in itertools.product(range(dim), repeat=4):
        lhs = _jacobiator(table, e[x], e[y], _mul(table, e[w], e[z]))
        _vadd(lhs, _jacobiator(table, e[w], e[y], _mul(table, e[x], e[z])))
        rhs = _mul(table, jac[(x, y, z)], e[w])
        _vadd(rhs, _mul(table, jac[(w, y, z)], e[x]))
        if lhs != rhs:
            malcev = False
            break
    return anti, lie, malcev


# ---------------------------------------------------------------------------
# text formats (hombol's public algebra and map documents)


def _coeff_term(c, factor):
    """Signed term text: ('-', '7/2*e1') style pieces for coefficient c."""
    mag = abs(c)
    body = factor if mag == 1 else f"{mag}*{factor}"
    return ("-" if c < 0 else "+"), body


def combo(vec, labels):
    parts = []
    for k in sorted(vec):
        sign, body = _coeff_term(vec[k], labels[k])
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts) if parts else "0"


def _labels(dim):
    return tuple(f"e{i + 1}" for i in range(dim))


def algebra_doc(dim, binary):
    """An untwisted algebra document with a binary product only."""
    labels = _labels(dim)
    lines = [f"dim {dim}", "basis " + " ".join(labels)]
    for (i, j) in sorted(binary):
        if binary[(i, j)]:
            lines.append(f"binary {labels[i]} {labels[j]} = {combo(binary[(i, j)], labels)}")
    return "\n".join(lines) + "\n"


def map_doc(cols):
    dim = len(cols)
    labels = _labels(dim)
    lines = [f"dim {dim}", "basis " + " ".join(labels)]
    lines += [f"alpha {labels[j]} = {combo(cols[j], labels)}" for j in range(dim)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# octonion-sparse: the 7-dim cross product of the imaginary octonions


def fano_product():
    """e_i x e_j = e_k on the oriented lines (i, i+1, i+3) mod 7."""
    table = {}
    for i in range(7):
        a, b, c = i, (i + 1) % 7, (i + 3) % 7
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = {z: F(1)}
            table[(y, x)] = {z: F(-1)}
    return table


def sign_automorphisms(table, dim):
    """Sign vectors s with s_i*s_j = s_k on every product e_i*e_j = +-e_k."""
    found = []
    for s in itertools.product((1, -1), repeat=dim):
        if all(s[i] * s[j] == s[next(iter(v))] for (i, j), v in table.items()):
            found.append(s)
    return found


@cache
def octonion_facts():
    table = fano_product()
    _require_non_lie_malcev(table, 7, "the octonion cross product")
    signs = sign_automorphisms(table, 7)
    if len(signs) != 8:
        raise RuntimeError(f"octonion reference: {len(signs)} sign automorphisms, expected 8")
    return table, signs


def _relabel(table, perm):
    return {
        (perm[i], perm[j]): {perm[k]: c for k, c in v.items()} for (i, j), v in table.items()
    }


def _require_non_lie_malcev(table, dim, name):
    if lie_malcev_facts(table, dim) != (True, False, True):
        raise RuntimeError(f"reference: {name} is not an anticommutative non-Lie Malcev algebra")


def _malcev_chain(doc, beta_cols, table, dim):
    """The octonion-sparse job chain.

    The input is an isomorphic copy of an algebra this module has found to
    be anticommutative, non-Lie and Malcev, which fixes the first two
    verdicts (suite verdicts do not change under isomorphism).  The Bol and
    Hom-Bol verdicts on the constructed algebras are the paper's
    Malcev-to-Bol theorem; its other precondition, that beta is an
    automorphism of the input, is checked here.
    """
    if not is_endomorphism(beta_cols, table, {}, dim):
        raise RuntimeError("reference: the seeded map is not an automorphism")
    passed = {"exit": 0, "verdict": "pass"}
    built = {"exit": 0, "doc": dim}
    return [
        Job(["check", "{alg}", "--suite", "malcev"], {"alg": doc}, passed),
        Job(["check", "{alg}", "--suite", "hom_lie"], {"alg": doc},
            {"exit": 1, "verdict": "FAIL", "failing": ["hom_jacobi"]}),
        Job(["malcev2bol", "{alg}", "--map", "{beta}"], {"alg": doc, "beta": map_doc(beta_cols)}, built),
        Job(["check", "{bol}", "--suite", "hom_bol"], {"bol": 2}, passed),
        Job(["malcev2bol", "{alg}"], {"alg": doc}, built),
        Job(["check", "{bol}", "--suite", "bol"], {"bol": 4}, passed),
    ]


@cache
def octonion_relabellings():
    """One basis permutation per distinct relabelled product (240 of the
    5040 permutations give distinct documents), in a fixed order."""
    table, _ = octonion_facts()
    by_doc = {}
    for perm in itertools.permutations(range(7)):
        moved = _relabel(table, perm)
        by_doc.setdefault(frozenset((ij, next(iter(v.items()))) for ij, v in moved.items()), perm)
    perms = list(by_doc.values())
    random.Random("octonion-sparse/relabellings").shuffle(perms)
    return perms


def octonion_case(case_seed):
    table, signs = octonion_facts()
    rng = random.Random(f"octonion-sparse/{case_seed}")
    perm = octonion_relabellings()[case_seed]
    s = rng.choice([s for s in signs if any(x < 0 for x in s)])
    moved = _relabel(table, perm)
    beta = [None] * 7
    for i in range(7):
        beta[perm[i]] = {perm[i]: F(s[i])}
    return _malcev_chain(algebra_doc(7, moved), beta, moved, 7)


# ---------------------------------------------------------------------------
# symbolic-tower: the catalog's twisted 2-dim families, symbolic and bound


def distinct_rationals(limit, signed, tag):
    """Every p/q with 1 <= p, q <= limit in lowest terms, except 1 (and -1),
    negated too when ``signed``, in an order fixed by ``tag``.  Case c binds
    entry c (or 2c and 2c + 1), which keeps every job of a pool distinct."""
    values = [F(p, q) for q in range(1, limit + 1) for p in range(1, limit + 1)
              if F(p, q).denominator == q and p != q]
    if signed:
        values += [-x for x in values]
    random.Random(tag).shuffle(values)
    return values


_SMALL = [F(n, d) for d in (1, 2, 3, 5) for n in range(-7, 8) if abs(n) > 1 and F(n, d).denominator == d]


def crosscheck_expect(name, n, lam, a, b):
    """Mismatch count of ``crosscheck`` from the closed forms in README
    "Known discrepancies".  A parameter is a Fraction, or None for symbolic.

    At order n (c = 2^n) the quoted derived binary constant is -b^(c-1) and
    the constructed one -b^c; the quoted ternary e1e2e1 constant is
    lambda*b^(2c-1) and the constructed lambda*b^(2c); HB_A3's [e1,e2,e2] is
    quoted with the opposite sign; the twist columns match.  At n = 0 the
    base form adds rows quoting lambda*b against the constructed lambda*b^2
    and, for HB_A3, the flipped sign again.  Two forms differ exactly when
    their difference, a product of the factors below, is a nonzero
    polynomial: a symbolic factor is nonzero, a bound one by its value.
    """

    def nonzero(*factors):
        return all(f is None or f != 0 for f in factors)

    def power(x, k):
        return None if x is None else x**k

    def one_minus(x):
        return None if x is None else 1 - x

    c = 2**n
    count = 0
    if nonzero(power(b, c - 1), one_minus(b)):
        count += 1  # binary e1 e2
    if nonzero(lam, power(b, 2 * c - 1), one_minus(b)):
        count += 1  # ternary e1 e2 e1
    if name == "HB_A3":
        count += 1  # ternary e1 e2 e2, sign
    rows = 5
    if n == 0:
        rows = 10
        if nonzero(lam, b, one_minus(b)):
            count += 1  # base ternary e1 e2 e1
        if name == "HB_A3":
            count += 1
    return {"exit": 0, "mismatches": count, "rows": rows}


def _entry_args(lam=None, a=None, b=None, sign=None):
    args = []
    for flag, value in (("--lambda", lam), ("--a", a), ("--b", b)):
        if value is not None:
            args.append(f"{flag}={value}")
    if sign is not None:
        args.append(f"--sign={sign}")
    return args


def symbolic_case(case_seed):
    rng = random.Random(f"symbolic-tower/{case_seed}")
    values = distinct_rationals(9, True, "symbolic-tower/values")
    u, v = values[2 * case_seed], values[2 * case_seed + 1]
    jobs = []
    # HB_A2 with lambda bound and a, b symbolic: the twist powers carry the
    # shear sum a*(1 + b + ... + b^(2^k - 1)), so every derived order k <= 6
    # does multi-term polynomial work.  HB_A2 is the Yau twist of the Bol
    # algebra A2 along its self-morphism family e1 -> e1 + a*e2, e2 -> b*e2,
    # so each derived algebra is Hom-Bol (the paper's derived-algebra theorem).
    jobs.append(Job(["catalog", "emit", "HB_A2", *_entry_args(lam=u)], {}, {"exit": 0, "doc": 2}))
    for k in range(1, 7):
        jobs.append(Job(["derive", "{alg}", "--n", str(k)], {"alg": 0}, {"exit": 0, "doc": 2}))
        jobs.append(Job(["check", "{alg}", "--suite", "hom_bol"], {"alg": len(jobs) - 1},
                        {"exit": 0, "verdict": "pass"}))
    # Every job below binds u or v, so no job repeats across cases.  The
    # seed picks values and which parameters stay symbolic only where that
    # leaves the cost of the case unchanged.
    # Symbolic b at order 13: 8192-term twist entries.
    lam, a = (v, None) if rng.random() < 0.5 else (None, v)
    jobs.append(Job(["crosscheck", "HB_A2", "--n", "13", *_entry_args(lam=lam, a=a)], {},
                    crosscheck_expect("HB_A2", 13, lam, a, None)))
    # Bound b (sometimes +-1): b^(2^(n+1)) stays a few hundred digits long.
    b = rng.choice([F(1), F(-1), rng.choice(_SMALL)])
    lam, a = (u, None) if rng.random() < 0.5 else (rng.choice([None, F(0)]), v)
    jobs.append(Job(["crosscheck", "HB_A2", "--n", "8", *_entry_args(lam=lam, a=a, b=b)], {},
                    crosscheck_expect("HB_A2", 8, lam, a, b)))
    # HB_A3: twisting along e2 -> b*e2 is an endomorphism only at b = +-1
    # (README, known discrepancies), so hom_bol fails exactly one axiom.
    b = rng.choice([F(1), F(-1), rng.choice(_SMALL), None])
    sign = rng.choice("+-")
    jobs.append(Job(["catalog", "emit", "HB_A3", *_entry_args(lam=v, b=b, sign=sign)], {},
                    {"exit": 0, "doc": 2}))
    if b is not None and b * b == 1:
        verdict = {"exit": 0, "verdict": "pass"}
    else:
        verdict = {"exit": 1, "verdict": "FAIL", "failing": ["twist_respects_ternary"]}
    jobs.append(Job(["check", "{alg}", "--suite", "hom_bol"], {"alg": len(jobs) - 1}, verdict))
    b = rng.choice([None, rng.choice(_SMALL)])
    jobs.append(Job(["crosscheck", "HB_A3", "--n", "8", *_entry_args(lam=u, b=b, sign=sign)], {},
                    crosscheck_expect("HB_A3", 8, u, None, b)))
    return jobs


# ---------------------------------------------------------------------------
# morphism-grid: brute-force self-morphism search


def so3_product(scale, perm, signs):
    """c * (cross product), in the basis f_perm[i] = signs[i] * e_i."""
    table = {}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c = scale * signs[i] * signs[j] * signs[k]
        table[(perm[i], perm[j])] = {perm[k]: F(c)}
        table[(perm[j], perm[i])] = {perm[k]: F(-c)}
    return table


def so3_grid_solutions(table):
    """Self-morphisms of a scaled, relabelled so(3) with entries in {-1,0,1}.

    Endomorphisms of a simple Lie algebra are 0 or automorphisms, and the
    automorphisms of so(3) in an orthonormal basis (any relabelling or sign
    flip of the standard one, for any scale) are its rotations, so the
    solutions on the grid are 0 and the signed permutation matrices that
    pass the morphism test here.
    """
    found = [tuple(tuple(0 for _ in range(3)) for _ in range(3))]
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            cols = [{perm[j]: F(signs[j])} for j in range(3)]
            if is_endomorphism(cols, table, {}, 3):
                found.append(tuple(tuple(signs[j] if perm[j] == i else 0 for i in range(3))
                                   for j in range(3)))
    return sorted(found)


def two_dim_table(kind, scale, lam, sign):
    """Binary and ternary tensors of A1/A2/A3 with the binary product scaled
    by k and the ternary by k^2 (an isomorphic copy, e -> k*e)."""
    k = scale
    binary = {(0, 1): {1: -k}, (1, 0): {1: k}}
    if kind == "A1":
        t121, t122 = {0: k * k}, {1: -k * k}
    elif kind == "A2":
        t121, t122 = {1: k * k * lam}, {}
    else:
        t121, t122 = {1: k * k * lam}, {0: k * k * sign}
    ternary = {}
    for (idx, v) in (((0, 1, 0), t121), ((0, 1, 1), t122)):
        v = {i: c for i, c in v.items() if c}
        if v:
            ternary[idx] = v
            ternary[(idx[1], idx[0], idx[2])] = {i: -c for i, c in v.items()}
    return binary, ternary


def two_dim_doc(kind, scale, sign):
    """The same algebra as a document with lambda symbolic."""
    k = scale
    lines = ["dim 2"]
    if kind != "A1":
        lines.append("params lambda")
    lines += ["basis e1 e2", "complete skew-binary", "complete skew-ternary"]
    lines.append(f"binary e1 e2 = {combo({1: -k}, ('e1', 'e2'))}")
    if kind == "A1":
        lines.append(f"ternary e1 e2 e1 = {combo({0: k * k}, ('e1', 'e2'))}")
        lines.append(f"ternary e1 e2 e2 = {combo({1: -k * k}, ('e1', 'e2'))}")
    else:
        lines.append(f"ternary e1 e2 e1 = {combo({1: k * k}, ('lambda*e1', 'lambda*e2'))}")
        if kind == "A3":
            lines.append(f"ternary e1 e2 e2 = {combo({0: k * k * sign}, ('e1', 'e2'))}")
    return "\n".join(lines) + "\n"


@cache
def two_dim_grid_count(kind, lam, sign):
    """Self-morphisms of A1/A2/A3 on hombol's default grid, by brute force
    over theta(e1) = a1 e1 + a2 e2, theta(e2) = b1 e1 + b2 e2.

    Computed for k = 1: every scaled copy has the same solutions, because
    the isomorphism e -> k*e commutes with every theta.
    """
    binary, ternary = two_dim_table(kind, F(1), lam, sign)
    count = 0
    for a1, a2, b1, b2 in itertools.product(DEFAULT_GRID, repeat=4):
        cols = [{i: c for i, c in enumerate((a1, a2)) if c}, {i: c for i, c in enumerate((b1, b2)) if c}]
        if is_endomorphism(cols, binary, ternary, 2):
            count += 1
    return count


def morphism_case(case_seed):
    rng = random.Random(f"morphism-grid/{case_seed}")
    # A positive scale unique to the case keeps every document distinct;
    # relabelling and sign flips only change the sign of the product.
    scale = distinct_rationals(20, False, "morphism-grid/so3")[case_seed]
    k = distinct_rationals(20, False, "morphism-grid/2dim")[case_seed]
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    table = so3_product(scale, perm, signs)
    jobs = [Job(["morphisms", "{alg}", "--grid=-1,0,1"], {"alg": algebra_doc(3, table)},
                {"exit": 0, "solution_set": partial(so3_grid_solutions, table)})]
    for kind in ("A1", "A2", "A3"):
        lam = rng.choice([F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)]) if kind != "A1" else None
        sign = rng.choice((1, -1)) if kind == "A3" else None
        argv = ["morphisms", "{alg}"] + (["--bind", f"lambda={lam}"] if lam is not None else [])
        jobs.append(Job(argv, {"alg": two_dim_doc(kind, k, sign)},
                        {"exit": 0, "grid_solutions": partial(two_dim_grid_count, kind, lam, sign)}))
    return jobs


# ---------------------------------------------------------------------------

_BUILDERS = {
    "octonion-sparse": octonion_case,
    "symbolic-tower": symbolic_case,
    "morphism-grid": morphism_case,
}


def make_case(workload, case_seed):
    return Case(case_seed, _BUILDERS[workload](case_seed))


def resolve_expect(job):
    """The job's expectations, computing the ones left as callables."""
    return {key: value() if callable(value) else value for key, value in job.expect.items()}


def case_order(workload, seed):
    """The case seeds a run draws, in order; fixed by the run's seed."""
    order = list(range(POOL_SIZE[workload]))
    random.Random(f"{workload}/run/{seed}").shuffle(order)
    return order
