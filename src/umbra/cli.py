"""Command-line surface: family tables, connection tables, verification runs.

Documents go to stdout as JSON (CSV is available for the flat tables);
diagnostics go to stderr.  Every scalar is an exact rational rendered as
"p/q" (or a bare integer "p"), never floating point, and identical
arguments always produce byte-identical output.

Exit codes: 0 success (all identities pass), 1 an identity check failed, 2 bad
arguments or out-of-regime parameters (the library's ValueError or UmbraError, before
any stdout), 3 internal error (connect's transfer table fails its check, or another
exception escaped; one "error:" line on stderr, no stdout), 141 stdout closed early
(as a shell reports SIGPIPE; nothing on stderr).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from .errors import UmbraError
from .families import FamilyKind, FamilySpec, _as_lambda, _family_rows, sheffer_pair_of
from .identities import (
    DEFAULT_LAMBDAS, THEOREM_IDS, IdentityReport, _first_mismatch, verify_theorem)
from .series import _as_count
from .umbral import _connection_table

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a closed pipe

_TOOL = {"name": "umbra", "version": __version__}
_CONVENTIONS = {
    "series_coefficients": "ordinary (entry k multiplies t^k)",
    "stirling_first_kind": "signed",
    "zero_power_zero": "1",
    "scalars": "exact rationals 'p/q' in lowest terms, positive denominator",
}

_FAMILY_NAMES = {kind.value: kind for kind in FamilyKind}


def _family_spec(name: str, order: int | None, lam: str | None) -> FamilySpec:
    kind = _FAMILY_NAMES.get(name)
    if kind is None:
        known = ", ".join(sorted(_FAMILY_NAMES))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    if kind is FamilyKind.HERMITE and order is not None:
        _as_count(order, "family order")  # refused like any other order, then unused
    r = 0 if kind is FamilyKind.HERMITE else (1 if order is None else order)
    return FamilySpec(kind, r, lam)


def parse_family_descriptor(text: str) -> FamilySpec:
    """Parse 'name[:order[:lambda]]', e.g. euler:1 or frobenius-euler:2:1/2."""
    parts = text.split(":")
    if len(parts) > 3:
        raise ValueError(f"bad family descriptor {text!r}")
    order = None
    if len(parts) > 1:
        try:
            order = int(parts[1])
        except ValueError:
            raise ValueError(f"bad order in descriptor {text!r}") from None
    return _family_spec(parts[0], order, parts[2] if len(parts) > 2 else None)


def _describe_spec(spec: FamilySpec) -> dict:
    return {
        "name": spec.kind.value,
        "order": None if spec.kind is FamilyKind.HERMITE else spec.order_r,
        "lambda": None if spec.lam is None else str(spec.lam),
    }


# -- documents ---------------------------------------------------------------

def _rows(table) -> list[dict]:
    """Row n of an integer table (rows, d), d > 0, as {"n": n, "coefficients": [text]}.

    Each x / d is written as str(Fraction(x, d)) would write it, after one gcd."""
    rows, d = table
    return [{"n": n, "coefficients": [
        str(x // g) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}" for x in row]}
        for n, row in enumerate(rows)]


def family_document(spec: FamilySpec, max_degree: int) -> dict:
    return {
        "document": "family-table",
        "tool": _TOOL,
        "conventions": _CONVENTIONS,
        "family": _describe_spec(spec),
        "max_degree": max_degree,
        "rows": _rows(_family_rows(spec, max_degree)),
    }


def connection_document(source: FamilySpec, target: FamilySpec, n_max: int) -> tuple[dict, bool]:
    table = _connection_table(
        sheffer_pair_of(source, n_max), sheffer_pair_of(target, n_max), n_max)
    agree = _first_mismatch(source, target, table, range(n_max + 1)) is None
    doc = {
        "document": "connection-table",
        "tool": _TOOL,
        "conventions": _CONVENTIONS,
        "source": _describe_spec(source),
        "target": _describe_spec(target),
        "max_n": n_max,
        "routes_agree": agree,
        "rows": _rows(table),
    }
    return doc, agree


def report_document(report: IdentityReport) -> dict:
    failure = None
    if report.first_failure is not None:
        f = report.first_failure
        failure = {
            "n": f.n,
            "k": f.k,
            "expected": str(f.expected),
            "got": str(f.got),
            "lambda": None if f.lam is None else str(f.lam),
        }
    return {
        "theorem": report.theorem_id,
        "max_n": report.n_max,
        "order": report.order_r,
        "lambdas": [str(v) for v in report.lambdas],
        "status": report.status,
        "first_failure": failure,
    }


def parse_document(text: str) -> dict:
    """Parse an emitted JSON document back into exact values.

    Row coefficients, each report's lambdas and a FAIL report's expected, got and
    lambda come back as Fractions that compare equal to the values they were built
    from; the grid's lambdas and each family descriptor's lambda stay text.
    """
    doc = json.loads(text)
    for row in doc.get("rows", ()):
        row["coefficients"] = [Fraction(c) for c in row["coefficients"]]
    for report in doc.get("reports", ()):
        report["lambdas"] = [Fraction(v) for v in report["lambdas"]]
        failure = report["first_failure"]
        if failure is not None:
            for key in ("expected", "got", "lambda"):
                if failure[key] is not None:
                    failure[key] = Fraction(failure[key])
    return doc


def parse_table_csv(text: str) -> list[list[Fraction]]:
    """Parse an emitted CSV table's coefficient rows (blank cells are padding)."""
    import csv  # only where a CSV is read or written: a JSON run need not import it

    reader = csv.reader(io.StringIO(text))
    next(reader)  # header
    return [[Fraction(c) for c in row[1:] if c != ""] for row in reader]


def _emit_json(doc: dict, out):
    out.write(json.dumps(doc, indent=2))
    out.write("\n")


def _emit_table(doc: dict, fmt: str, out) -> int:
    """Write a table document as JSON, or its rows as CSV padded to the widest row."""
    if fmt != "csv":
        _emit_json(doc, out)
        return EXIT_OK
    import csv

    rows = doc["rows"]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n"] + [f"c{i}" for i in range(len(rows))])
    for row in rows:
        cells = row["coefficients"]
        writer.writerow([row["n"]] + cells + [""] * (len(rows) - len(cells)))
    return EXIT_OK


# -- subcommands -------------------------------------------------------------

def _cmd_family(args, out) -> int:
    spec = _family_spec(args.name, args.order, args.lam)
    return _emit_table(family_document(spec, args.max_degree), args.format, out)


def _cmd_connect(args, out) -> int:
    source = parse_family_descriptor(args.source)
    target = parse_family_descriptor(args.target)
    doc, agree = connection_document(source, target, args.max_n)
    if not agree:
        print(
            "error: the transfer-formula table and the recombined Sheffer tables disagree",
            file=sys.stderr)
        return EXIT_INCONSISTENT
    return _emit_table(doc, args.format, out)


def _parse_theorems(text: str) -> tuple[list[str], bool]:
    tokens = [tok.strip().lower() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("--theorems needs at least one id")
    if "all" in tokens:
        return list(THEOREM_IDS), True
    for tok in tokens:
        if tok not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {tok!r} (known: all, {', '.join(THEOREM_IDS)})")
    # keep canonical order, drop duplicates
    return [tid for tid in THEOREM_IDS if tid in tokens], False


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise ValueError(f"{flag} needs a comma-separated list of integers") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _cmd_verify(args, out) -> int:
    theorems, requested_all = _parse_theorems(args.theorems)
    orders = [0, 1, 2, 3] if args.orders is None else _parse_int_list(args.orders, "--orders")
    lambdas = (
        list(DEFAULT_LAMBDAS)
        if args.lambdas is None
        else [_as_lambda(tok) for tok in args.lambdas.split(",") if tok.strip()])
    if not lambdas:
        raise ValueError("--lambdas needs at least one value")

    # t6 lives in the r > n regime and t7 in r <= n; unless an id was asked
    # for explicitly with explicit orders, t6 gets its smallest admissible
    # order and t7 leaves out the orders above max-n (a negative max-n keeps
    # them, so that verify_theorem refuses it).
    auto = requested_all or args.orders is None

    cells = []
    for tid in theorems:
        if tid == "t6" and auto:
            cells.append((tid, args.max_n + 1))
        else:
            cells.extend(
                (tid, r) for r in orders if not (tid == "t7" and auto and r > args.max_n >= 0))

    reports = [
        verify_theorem(tid, args.max_n, r, lambdas=lambdas, symbolic_lambda=args.symbolic_lambda)
        for tid, r in cells]

    all_pass = all(r.passed for r in reports)
    doc = {
        "document": "verification-report",
        "tool": _TOOL,
        "conventions": _CONVENTIONS,
        "grid": {
            "theorems": theorems,
            "max_n": args.max_n,
            "orders": orders,
            "lambdas": [str(v) for v in lambdas],
            "symbolic_lambda": bool(args.symbolic_lambda),
        },
        "reports": [report_document(r) for r in reports],
        "all_pass": all_pass,
    }
    _emit_json(doc, out)
    return EXIT_OK if all_pass else EXIT_IDENTITY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbra",
        description="Exact tables and identity checks for the built-in Sheffer families.")
    parser.add_argument("--version", action="version", version=f"umbra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser(
        "family", help="emit coefficient rows 0..N of one polynomial family")
    p_family.add_argument(
        "--name", required=True,
        help="hermite, bernoulli, euler, or frobenius-euler")
    p_family.add_argument(
        "--order", type=int, default=None,
        help="family order r (default 1; ignored for hermite)")
    p_family.add_argument(
        "--lambda", dest="lam", default=None,
        help="parameter for frobenius-euler, as p/q (never 1)")
    p_family.add_argument("--max-degree", type=int, required=True)
    p_family.add_argument("--format", choices=("json", "csv"), default="json")
    p_family.set_defaults(handler=_cmd_family)

    p_connect = sub.add_parser(
        "connect", help="emit the connection-coefficient table between two families")
    p_connect.add_argument(
        "--from", dest="source", required=True,
        help="source family descriptor name[:order[:lambda]], e.g. euler:1")
    p_connect.add_argument(
        "--to", dest="target", required=True,
        help="target family descriptor, e.g. hermite or bernoulli:2")
    p_connect.add_argument("--max-n", type=int, required=True)
    p_connect.add_argument("--format", choices=("json", "csv"), default="json")
    p_connect.set_defaults(handler=_cmd_connect)

    p_verify = sub.add_parser(
        "verify", help="check identities exactly over a parameter grid")
    p_verify.add_argument(
        "--theorems", required=True,
        help="comma-separated ids from t1..t8, remark, or 'all'")
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument(
        "--orders", default=None,
        help="comma-separated family orders (default 0,1,2,3; unless given explicitly, "
             "t6 picks max-n+1 and t7 drops orders above max-n)")
    p_verify.add_argument(
        "--lambdas", "--lambda", dest="lambdas", default=None,
        help="comma-separated p/q parameter samples for t3/t8/remark (default -1,2,1/2)")
    p_verify.add_argument(
        "--symbolic-lambda", action="store_true",
        help="widen the sample set to max-n + order + 1 values, enough to prove the identity for every parameter")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.handler(args, sys.stdout)
        sys.stdout.flush()  # a reader that closed early shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed early (`umbra ... | head`): not a crash
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # exit flushes quietly
        return EXIT_BROKEN_PIPE
    except (UmbraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash, told apart from a FAIL (exit 1)
        print(f"error: unexpected {exc!r}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
