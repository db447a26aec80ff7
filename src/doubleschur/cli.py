"""Command line interface.

Subcommands: `schur` prints a double Schur polynomial, `product` prints
the structure constants of one Schubert product with certificates,
`table` writes a full structure table to a file, `verify` runs a property
suite.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 refused: a resource guard, the recursion depth or memory ran out.
"""

from __future__ import annotations

import argparse
import json
import sys

from .grass import (
    GrassContext,
    SizeGuardExceeded,
    _certified_product,
    _products_to_obj,
    full_structure_table,
)
from .poly import DegreeOverflow, poly_to_obj
from .schur import double_schur, partition
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


class UsageError(ValueError):
    pass


def parse_partition(text):
    """Comma-separated weakly decreasing nonnegative integers; the empty
    string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    pieces = [piece.strip() for piece in text.split(",")]
    for piece in pieces:
        if not piece.isdecimal():
            raise UsageError(f"malformed partition entry {piece!r} in {text!r}")
    try:
        return partition(map(int, pieces))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":")))


def cmd_schur(args):
    lam = parse_partition(args.lam)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if len(lam) > args.n:
        raise UsageError(f"partition {lam} has more than {args.n} parts")
    p = double_schur(lam, args.n)
    if args.format == "text":
        print(p)
    else:
        _emit({"n": args.n, "lambda": list(lam), "schur": poly_to_obj(p)})
    return EXIT_OK


def cmd_product(args):
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    try:
        products = _certified_product(lam, mu, GrassContext(args.n, args.m))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "text":
        if not products:
            print("0")
        for nu, (coeff, report) in products.items():
            cert = report.certificate.render("u{}".format) if report.positive else \
                f"VIOLATION: {report.reason} ({report.offender})"
            print(f"nu={list(nu)}  coeff: {coeff}  certificate: {cert}")
    else:
        _emit({"n": args.n, "m": args.m, "lambda": list(lam), "mu": list(mu),
               "products": _products_to_obj(products, {})})
    return EXIT_OK


def cmd_table(args):
    try:
        ctx = GrassContext(args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    table = full_structure_table(ctx)
    payload = json.dumps(table.to_obj(), separators=(",", ":"))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    _emit({"command": "table", "n": args.n, "m": args.m, "out": args.out,
           "entries": len(table.entries), "all_positive": table.all_positive})
    return EXIT_OK


def cmd_verify(args):
    try:
        report = run_suite(args.suite, args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="doubleschur",
        description="Exact equivariant Schubert calculus on Grassmannians "
                    "via double Schur polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_schur = sub.add_parser("schur", help="print a double Schur polynomial")
    p_schur.add_argument("--n", type=int, required=True, help="number of x-variables")
    p_schur.add_argument("--lambda", dest="lam", required=True,
                         help="partition, e.g. '2,1' ('' for the empty one)")
    p_schur.add_argument("--format", choices=("json", "text"), default="json")
    p_schur.set_defaults(func=cmd_schur)

    p_prod = sub.add_parser("product",
                            help="structure constants of one Schubert product")
    p_prod.add_argument("--n", type=int, required=True)
    p_prod.add_argument("--m", type=int, required=True)
    p_prod.add_argument("--lambda", dest="lam", required=True)
    p_prod.add_argument("--mu", required=True)
    p_prod.add_argument("--format", choices=("json", "text"), default="json")
    p_prod.set_defaults(func=cmd_product)

    p_table = sub.add_parser("table", help="write a full structure table")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--m", type=int, required=True)
    p_table.add_argument("--out", required=True, help="output JSON file")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SizeGuardExceeded, DegreeOverflow, RecursionError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        pass    # report once the handler has let go of the frames that filled memory
    print("refused: out of memory; the result does not fit in the memory "
          "this process may use", file=sys.stderr)
    return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
