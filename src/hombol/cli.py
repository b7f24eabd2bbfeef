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


def _cmd_morphisms(args):
    alg = parse_algebra(_read(args.file))
    # dimension 2 classifies too; its report carries the one system built
    report = classify_2dim(alg, args.bind or None, args.grid or DEFAULT_GRID) if alg.dim == 2 else None
    system = generate_constraints(alg) if report is None else report.system
    text = emit_constraints(system)
    if args.export:
        Path(args.export).write_text(text, encoding="utf-8")
        print(f"wrote {len(system.equations)} equation(s) to {args.export}")
    else:
        print(text, end="")
    if report is not None:
        print(report.describe())
    elif args.grid:
        solutions = grid_search(system, args.grid, parameter_bindings=args.bind or None)
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


def _flag_int(flag, text):
    """An integer flag value, read through parse_int: an over-long one is a
    short ParseError naming the flag, and no error echoes the value."""
    m = re.fullmatch(r"\s*([-+]?)(\d+(?:_\d+)*)\s*", text)
    if m is None:
        raise ParseError(f"{flag} takes an integer")
    value = parse_int(m.group(2), column=m.start(2) + 1, source=flag)
    return -value if m.group(1) == "-" else value


def _flag_rational(flag, text, offset=0):
    """A rational flag value as Fraction reads it (p, p/q, a sign, a decimal,
    underscores, a decimal exponent), but bounded: each digit run goes
    through parse_int first, and an exponent above Python's int-digit limit,
    which Fraction would expand digit by digit, is refused.  Errors are
    ParseErrors naming the flag and the column (offset + 1 for the first
    character of text)."""
    for m in re.finditer(r"\d+(?:_\d+)*", text):
        parse_int(m.group(), column=offset + m.start() + 1, source=flag)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    m = re.search(r"[eE][-+]?(\d+(?:_\d+)*)", text)
    if m and int(m.group(1)) > limit:
        raise ParseError(
            f"{flag}: a decimal exponent may not exceed {limit}, Python's limit on integer digits",
            column=offset + m.start() + 1,
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{flag} takes a rational: p, p/q or a decimal", column=offset + 1) from None


def _flag_grid(flag, text):
    grid, offset = [], 0
    for tok in text.split(",") if text else ():
        grid.append(_flag_rational(flag, tok, offset))
        offset += len(tok) + 1
    return tuple(grid) or None


def _flag_bindings(flag, pairs):
    bindings = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ParseError(f"{flag} takes NAME=RATIONAL")
        bindings[name] = _flag_rational(flag, value, len(name) + 1)
    return bindings


# (dest, flag, reader) for every flag argparse leaves as text; main reads
# them all before a command does any work
_TYPED_FLAGS = (
    ("n", "--n", _flag_int),
    ("twist_exp", "--twist-exp", _flag_int),
    ("lam", "--lambda", _flag_rational),
    ("a", "--a", _flag_rational),
    ("b", "--b", _flag_rational),
    ("grid", "--grid", _flag_grid),
    ("bind", "--bind", _flag_bindings),
)


def _add_entry_params(sp, sign_default=None):
    sp.add_argument("--lambda", dest="lam", default=None, help="bind the ternary coefficient (rational)")
    sp.add_argument("--a", default=None, help="bind the shear parameter")
    sp.add_argument("--b", default=None, help="bind the scale parameter")
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
    sp.add_argument("--twist-exp", default=None,
                    help="reinterpret A as this power of the twist")

    sp = sub.add_parser("twist", help="twist along a commuting endomorphism")
    sp.add_argument("file")
    sp.add_argument("--map", required=True, help="map document for the endomorphism")
    sp.add_argument("--n", default="1", help="twisting order (default 1)")

    sp = sub.add_parser("derive", help="nth derived algebra")
    sp.add_argument("file")
    sp.add_argument("--n", required=True)

    sp = sub.add_parser("seq", help="nth member of the twist-power sequence")
    sp.add_argument("file")
    sp.add_argument("--n", required=True)

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
    sp.add_argument("--n", required=True, help="derived order")
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
        for dest, flag, read in _TYPED_FLAGS:
            if getattr(args, dest, None) is not None:
                setattr(args, dest, read(flag, getattr(args, dest)))
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
