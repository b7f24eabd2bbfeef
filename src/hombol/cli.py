"""Command line front end.

Exit codes: 0 success or Pass, 1 a check failed (counterexample printed),
2 parse or usage error, 3 precondition violation (bad map, order limit, ...).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog
from .constructions import malcev_to_bol, nth_derived, self_twist, sequence_member
from .errors import ParseError, PreconditionError, parse_int
from .identities import SUITES, check_suite, parse_suite
from .morphisms import DEFAULT_GRID, classify_2dim, generate_constraints, grid_search
from .serialization import (
    emit_algebra,
    emit_constraints,
    emit_map,
    format_suite_report,
    parse_algebra,
    parse_map,
)


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _load_map(path, alg):
    m, _, _ = parse_map(_read(path))
    if m.dim != alg.dim:
        raise PreconditionError(
            f"map has dimension {m.dim} but the algebra has dimension {alg.dim}"
        )
    return m


def _cmd_check(args):
    alg = parse_algebra(_read(args.file))
    if args.suite is not None:
        report = check_suite(alg, args.suite, twist_exponent=args.twist_exp)
    else:
        suite = parse_suite(_read(args.identity), name=Path(args.identity).stem)
        report = check_suite(alg, suite, twist_exponent=args.twist_exp)
    print(format_suite_report(report, alg.basis))
    return 0 if report.passed else 1


def _cmd_twist(args):
    alg = parse_algebra(_read(args.file))
    beta = _load_map(args.map, alg)
    print(emit_algebra(self_twist(alg, beta, args.n)), end="")
    return 0


def _cmd_derive(args):
    alg = parse_algebra(_read(args.file))
    print(emit_algebra(nth_derived(alg, args.n)), end="")
    return 0


def _cmd_seq(args):
    alg = parse_algebra(_read(args.file))
    print(emit_algebra(sequence_member(alg, None, args.n)), end="")
    return 0


def _cmd_malcev2bol(args):
    alg = parse_algebra(_read(args.file))
    beta = _load_map(args.map, alg) if args.map else None
    print(emit_algebra(malcev_to_bol(alg, beta)), end="")
    return 0


def _read_digits(flag, text, offset=0):
    """text, once each of its digit runs has gone through parse_int: a run too
    long for Python to read is a ParseError naming the flag and the column
    (offset + 1 for the first character of text)."""
    for m in re.finditer(r"\d+(?:_\d+)*", text):
        parse_int(m.group(), column=offset + m.start() + 1, source=flag)
    return text


def _parse_bindings(pairs):
    bindings = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--bind takes NAME=RATIONAL, got {pair!r}")
        bindings[name] = Fraction(_read_digits("--bind", value, len(name) + 1))
    return bindings


def _cmd_morphisms(args):
    alg = parse_algebra(_read(args.file))
    system = generate_constraints(alg, include_twist=not alg.twist.is_identity())
    text = emit_constraints(system)
    if args.export:
        Path(args.export).write_text(text, encoding="utf-8")
        print(f"wrote {len(system.equations)} equation(s) to {args.export}")
    else:
        print(text, end="")
    bindings = _parse_bindings(args.bind)
    grid = (
        tuple(Fraction(tok) for tok in _read_digits("--grid", args.grid).split(","))
        if args.grid
        else DEFAULT_GRID
    )
    if alg.dim == 2:
        report = classify_2dim(alg, parameter_bindings=bindings or None, grid_values=grid)
        print(report.describe())
    elif args.grid:
        solutions = grid_search(system, grid, parameter_bindings=bindings or None)
        print(f"grid search: {len(solutions)} solution(s)")
        for m in solutions:
            print(emit_map(m, alg.basis), end="")
    return 0


def _cmd_catalog(args):
    if args.action == "list":
        for entry in catalog.entries():
            plist = ", ".join(
                p + (" (required)" if p in entry.required else "")
                for p in entry.parameters
            )
            suffix = f" [{plist}]" if plist else ""
            print(f"{entry.name}{suffix}: {entry.description}")
        return 0
    if not args.name:
        raise ValueError("catalog emit needs an entry name")
    alg = catalog.build(args.name, lam=args.lam, a=args.a, b=args.b, sign=args.sign)
    print(emit_algebra(alg), end="")
    return 0


def _cmd_crosscheck(args):
    report = catalog.cross_check(
        args.name, args.n, lam=args.lam, a=args.a, b=args.b, sign=args.sign
    )
    print(report.format())
    return 0


def _add_entry_params(sp, sign_default=None):
    sp.add_argument("--lambda", dest="lam", type=Fraction, default=None,
                    help="bind the ternary coefficient (rational)")
    sp.add_argument("--a", type=Fraction, default=None, help="bind the shear parameter")
    sp.add_argument("--b", type=Fraction, default=None, help="bind the scale parameter")
    sp.add_argument("--sign", choices=("+", "-"), default=sign_default,
                    help="sign of [e1,e2,e2] for the A3 family (use --sign=-)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hombol",
        description="Exact checks and constructions for binary-ternary Hom-algebras "
        "given by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="run an axiom suite or a custom identity file")
    sp.add_argument("file", help="algebra document")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--suite", help=f"built-in suite: {', '.join(sorted(SUITES))}")
    which.add_argument("--identity", help="file of 'name : identity' lines")
    sp.add_argument("--twist-exp", type=int, default=None,
                    help="reinterpret A as this power of the twist")

    sp = sub.add_parser("twist", help="twist along a commuting endomorphism")
    sp.add_argument("file")
    sp.add_argument("--map", required=True, help="map document for the endomorphism")
    sp.add_argument("--n", type=int, default=1, help="twisting order (default 1)")

    sp = sub.add_parser("derive", help="nth derived algebra")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("seq", help="nth member of the twist-power sequence")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("malcev2bol", help="Bol algebra from a Malcev algebra")
    sp.add_argument("file")
    sp.add_argument("--map", help="optional endomorphism to twist along")

    sp = sub.add_parser("morphisms", help="self-morphism constraint system")
    sp.add_argument("file")
    sp.add_argument("--grid", help="comma-separated rationals for the exhaustive search")
    sp.add_argument("--bind", action="append", default=[], metavar="NAME=RATIONAL",
                    help="bind an algebra parameter (repeatable)")
    sp.add_argument("--export", help="write the constraint system to this file")

    sp = sub.add_parser("catalog", help="list or emit the bundled algebras")
    sp.add_argument("action", choices=("list", "emit"))
    sp.add_argument("name", nargs="?", help="entry name for emit")
    _add_entry_params(sp)

    sp = sub.add_parser("crosscheck", help="quoted closed forms vs constructor output")
    sp.add_argument("name")
    sp.add_argument("--n", type=int, required=True, help="derived order")
    _add_entry_params(sp, sign_default="+")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "twist": _cmd_twist,
        "derive": _cmd_derive,
        "seq": _cmd_seq,
        "malcev2bol": _cmd_malcev2bol,
        "morphisms": _cmd_morphisms,
        "catalog": _cmd_catalog,
        "crosscheck": _cmd_crosscheck,
    }[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        # Python's message when an int is too long to print; reading one too
        # long says "...conversion: value has N digits" instead
        if isinstance(exc, ValueError) and "integer string conversion;" in str(message):
            message = (
                f"a coefficient of the result exceeds Python's {sys.get_int_max_str_digits()}-digit "
                "limit for printing integers; use a lower --n, or leave the parameter symbolic"
            )
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
