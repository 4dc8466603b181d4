"""Command-line surface: family tables, connection tables, verification runs.

Each command builds its document with `_document` and writes it to stdout with
`_emit_table`, the one writer: JSON by `_json`, or a table's rows as CSV.  Diagnostics
go to stderr.  Every scalar is an exact rational rendered as "p/q" (or a bare integer
"p"), never floating point, and identical arguments always produce byte-identical output.
A process enters at `_run`.

Exit codes: 0 success (all identities pass), 1 an identity check failed, 2 bad
arguments or out-of-regime parameters (the library's ValueError or UmbraError, before
any stdout), 3 internal error (connect's transfer table fails its check, or another
exception escaped; one "error:" line on stderr, no stdout), 141 stdout closed early
(as a shell reports SIGPIPE; nothing on stderr).  A size above `_CEILING` exits 2.
`_quick_args` reads a well-formed command line, and argparse (`build_parser`) the rest.
"""

from __future__ import annotations

import gc
import io
import os
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from . import __version__
from .errors import UmbraError
from .families import FamilyKind, FamilySpec, _as_lambda, _family_rows, sheffer_pair_of
from .identities import (
    DEFAULT_LAMBDAS, THEOREM_IDS, IdentityReport, _first_mismatch, _grid_orders, verify_theorem)
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

#: The largest size the CLI takes: --max-n, --max-degree, --order, each --orders value
#: and a descriptor's order.  A table holds about N^2/2 entries whose digits grow with N,
#: so a far larger size runs for hours or never ends; --symbolic-lambda's count <= 2001.
_CEILING = 1000


def _below_ceiling(value: int | None, what: str):
    if value is not None and value > _CEILING:
        raise ValueError(f"{what} must be at most {_CEILING}, got {value}")


def _family_spec(name: str, order: int | None, lam: str | None) -> FamilySpec:
    kind = _FAMILY_NAMES.get(name)
    if kind is None:
        known = ", ".join(sorted(_FAMILY_NAMES))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    _below_ceiling(order, "family order")
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


def _document(kind: str, **body) -> dict:
    return {"document": kind, "tool": _TOOL, "conventions": _CONVENTIONS, **body}


def family_document(spec: FamilySpec, max_degree: int) -> dict:
    return _document("family-table", family=_describe_spec(spec), max_degree=max_degree,
                     rows=_rows(_family_rows(spec, max_degree)))


def connection_document(source: FamilySpec, target: FamilySpec, n_max: int) -> tuple[dict, bool]:
    table = _connection_table(
        sheffer_pair_of(source, n_max), sheffer_pair_of(target, n_max), n_max)
    agree = _first_mismatch(source, target, table, n_max) is None
    return _document("connection-table", source=_describe_spec(source),
                     target=_describe_spec(target), max_n=n_max, routes_agree=agree,
                     rows=_rows(table)), agree


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
    import json  # only where a document is read: _emit_table writes one without it

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
    import csv  # only where a CSV is read, which no CLI run does

    reader = csv.reader(io.StringIO(text))
    next(reader)  # header
    return [[Fraction(c) for c in row[1:] if c != ""] for row in reader]


def _json(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a document's values; ``indent`` precedes the close.

    Documents hold dicts with str keys, lists, str, int, bool and None, and each string is a
    name, a theorem id or str() of an int or Fraction, which JSON writes with no escapes."""
    inner = indent + "  "
    if isinstance(value, dict):
        brackets, items = "{}", [f'{inner}"{key}": {_json(v, inner)}' for key, v in value.items()]
    elif isinstance(value, list):  # a str item, as each row coefficient is, written inline
        brackets, items = "[]", [f'{inner}"{v}"' if isinstance(v, str) else inner + _json(v, inner)
                                 for v in value]
    elif isinstance(value, str):
        return f'"{value}"'
    else:  # an int or a bool, whose str() lowered is JSON's true or false, or None
        return "null" if value is None else str(value).lower()
    return brackets[0] + ",".join(items) + indent + brackets[1] if items else brackets


def _emit_table(doc: dict, fmt: str, out) -> int:
    """Write a document as JSON, or a table document's rows as CSV padded to the widest
    row: every command's document goes out here."""
    if fmt != "csv":
        out.write(_json(doc, "\n") + "\n")
        return EXIT_OK
    # every cell is n, cI, an int, "p/q" or "": none holds what csv.writer would quote
    rows = doc["rows"]
    out.write(",".join(["n"] + [f"c{i}" for i in range(len(rows))]) + "\n")
    for row in rows:
        cells = row["coefficients"]
        out.write(",".join([str(row["n"])] + cells + [""] * (len(rows) - len(cells))) + "\n")
    return EXIT_OK


# -- subcommands -------------------------------------------------------------

def _cmd_text(args, out) -> int:
    out.write(args.text)  # --version's line, or the help or version text argparse printed
    return EXIT_OK


def _cmd_family(args, out) -> int:
    spec = _family_spec(args.name, args.order, args.lam)
    _below_ceiling(args.max_degree, "--max-degree")
    return _emit_table(family_document(spec, args.max_degree), args.format, out)


def _cmd_connect(args, out) -> int:
    source = parse_family_descriptor(args.source)
    target = parse_family_descriptor(args.target)
    _below_ceiling(args.max_n, "--max-n")
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
    _below_ceiling(args.max_n, "--max-n")
    _below_ceiling(max(orders), "an --orders value")
    lambdas = (
        list(DEFAULT_LAMBDAS)
        if args.lambdas is None
        else [_as_lambda(tok) for tok in args.lambdas.split(",") if tok.strip()])
    if not lambdas:
        raise ValueError("--lambdas needs at least one value")

    # an id named together with explicit orders checks exactly those orders
    auto = requested_all or args.orders is None
    reports = [
        verify_theorem(tid, args.max_n, r, lambdas=lambdas, symbolic_lambda=args.symbolic_lambda)
        for tid in theorems
        for r in (_grid_orders(tid, args.max_n, orders) if auto else orders)]

    all_pass = all(r.passed for r in reports)
    grid = {
        "theorems": theorems,
        "max_n": args.max_n,
        "orders": orders,
        "lambdas": [str(v) for v in lambdas],
        "symbolic_lambda": bool(args.symbolic_lambda),
    }
    _emit_table(_document("verification-report", grid=grid,
                          reports=[report_document(r) for r in reports], all_pass=all_pass),
                "json", out)
    return EXIT_OK if all_pass else EXIT_IDENTITY_FAILURE


_FORMAT = ("--format",), dict(choices=("json", "csv"), default="json")

#: The command line, declared once for build_parser() and _quick_args(): each command's
#: help, handler and options, an option as its flags and its add_argument keywords.
_COMMANDS = {
    "family": ("emit coefficient rows 0..N of one polynomial family", _cmd_family, (
        (("--name",), dict(required=True, help="hermite, bernoulli, euler, or frobenius-euler")),
        (("--order",), dict(type=int, help="family order r (default 1; ignored for hermite)")),
        (("--lambda",), dict(dest="lam", help="parameter for frobenius-euler, as p/q (never 1)")),
        (("--max-degree",), dict(type=int, required=True)),
        _FORMAT)),
    "connect": ("emit the connection-coefficient table between two families", _cmd_connect, (
        (("--from",), dict(dest="source", required=True,
                           help="source family descriptor name[:order[:lambda]], e.g. euler:1")),
        (("--to",), dict(dest="target", required=True,
                         help="target family descriptor, e.g. hermite or bernoulli:2")),
        (("--max-n",), dict(type=int, required=True)),
        _FORMAT)),
    "verify": ("check identities exactly over a parameter grid", _cmd_verify, (
        (("--theorems",), dict(required=True,
                               help="comma-separated ids from t1..t8, remark, or 'all'")),
        (("--max-n",), dict(type=int, required=True)),
        (("--orders",), dict(help="comma-separated family orders (default 0,1,2,3; unless given "
                                  "explicitly, t6 picks max-n+1 and t7 drops orders above max-n)")),
        (("--lambdas", "--lambda"), dict(dest="lambdas", help="comma-separated p/q parameter "
                                         "samples for t3/t8/remark (default -1,2,1/2)")),
        (("--symbolic-lambda",), dict(action="store_true", default=False, help="widen the sample "
         "set to max-n + order + 1 values, enough to prove the identity for every parameter")))),
}


def build_parser():
    """The argparse parser of `_COMMANDS`: it reads every line `_quick_args` refuses."""
    import argparse  # only for help, abbreviations and usage errors

    parser = argparse.ArgumentParser(
        prog="umbra",
        description="Exact tables and identity checks for the built-in Sheffer families.")
    parser.add_argument("--version", action="version", version=f"umbra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=text)
        for flags, keywords in options:
            p_command.add_argument(*flags, **keywords)
        p_command.set_defaults(handler=handler)
    return parser


def _quick_args(argv: list[str]):
    """What `build_parser().parse_args(argv)` returns for a well-formed line, else None.

    Well-formed: a command, then each of its options at most once, as the exact flag and
    `=value` or a next token not starting with "-" (store_true: the flag alone), with every
    required one, each int read by int() and each choice among its choices.  argparse's
    top level hands every token after the command to that command's parser, which matches
    an exact flag before abbreviations, splits at the first "=" (no flag holds one), takes
    a next token not starting with "-" as the value and defaults the rest: the same namespace."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    args, by_flag = {"command": argv[0], "handler": handler}, {}
    for flags, keywords in options:
        dest = keywords.get("dest", flags[0][2:].replace("-", "_"))
        args[dest] = keywords.get("default")
        by_flag.update(dict.fromkeys(flags, (dest, keywords)))
    required = {dest for dest, keywords in by_flag.values() if keywords.get("required")}
    seen, tokens = set(), iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        dest, keywords = by_flag.get(flag, (None, {}))
        if dest is None or dest in seen:
            return None
        seen.add(dest)
        if "action" in keywords:  # store_true, the one action: the flag alone
            if eq:
                return None
            value = True
        elif not eq and (value := next(tokens, "-")).startswith("-"):
            return None
        try:
            args[dest] = value = keywords.get("type", lambda text: text)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
    return SimpleNamespace(**args) if required <= seen else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = (SimpleNamespace(handler=_cmd_text, text=f"umbra {__version__}\n")
            if argv == ["--version"] else _quick_args(argv))
    if args is None:  # argparse reads the line; its help or version text is written below
        import contextlib

        text = io.StringIO()
        try:
            with contextlib.redirect_stdout(text):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # a usage error has written its message to stderr
            if exc.code:
                return EXIT_USAGE
            args = SimpleNamespace(handler=_cmd_text, text=text.getvalue())
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


def _run():
    """Run main() as the process: `python -m umbra.cli` and the `umbra` script.

    gc.freeze() before exit moves the run's objects to the permanent generation, which the
    exit-time collections skip; no umbra object has a finalizer with a visible effect, and
    the std streams are still flushed.  main() freezes nothing: tests run it in process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    _run()
