import gc
import hashlib
import json
import operator
import os
import random
import re
import subprocess
import sys
from collections.abc import MutableMapping
from fractions import Fraction as F
from pathlib import Path

import pytest

import umbra.families as families
import umbra.identities as identities
import umbra.series as series
import umbra.umbral as umbral
from umbra import TruncatedSeries, __version__, as_rational, connection_coeffs, verify_theorem
from umbra.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_IDENTITY_FAILURE,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_document,
    parse_family_descriptor,
    parse_table_csv,
)
from umbra.families import FamilyKind

from conftest import cli_env
from test_series import horner_compose, naive_product
from test_umbral import walks_expand_no_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational():
    assert as_rational("3/4") == F(3, 4)
    assert as_rational("-7") == F(-7)
    assert as_rational(" 1/2 ") == F(1, 2)
    for bad in ("1.5", "x", "3/0", "1/2/3", ""):
        with pytest.raises(Exception):
            as_rational(bad)


def test_parse_family_descriptor():
    spec = parse_family_descriptor("euler:2")
    assert spec.kind is FamilyKind.EULER and spec.order_r == 2
    spec = parse_family_descriptor("frobenius-euler:3:1/2")
    assert spec.lam == F(1, 2)
    spec = parse_family_descriptor("hermite")
    assert spec.kind is FamilyKind.HERMITE
    for bad in ("nope", "euler:x", "euler:1:2", "frobenius-euler:1", "a:1:2:3"):
        code = main(["connect", "--from", bad, "--to", "hermite", "--max-n", "2"])
        assert code == EXIT_USAGE


def test_family_hermite_rows(capsys):
    code, out, _ = run(capsys, "family", "--name", "hermite", "--max-degree", "4")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["document"] == "family-table"
    assert doc["family"] == {"name": "hermite", "order": None, "lambda": None}
    assert doc["rows"][4]["coefficients"] == [F(12), F(0), F(-48), F(0), F(16)]


def test_family_order_zero_bernoulli_is_monomials(capsys):
    code, out, _ = run(
        capsys, "family", "--name", "bernoulli", "--order", "0", "--max-degree", "3")
    assert code == EXIT_OK
    doc = parse_document(out)
    for n, row in enumerate(doc["rows"]):
        assert row["coefficients"] == [F(0)] * n + [F(1)]


def test_family_frobenius_euler_at_minus_one_matches_euler(capsys):
    code_fe, out_fe, _ = run(
        capsys, "family", "--name", "frobenius-euler", "--order", "1",
        "--lambda", "-1", "--max-degree", "3")
    code_eu, out_eu, _ = run(
        capsys, "family", "--name", "euler", "--order", "1", "--max-degree", "3")
    assert code_fe == code_eu == EXIT_OK
    assert parse_document(out_fe)["rows"] == parse_document(out_eu)["rows"]


def test_family_usage_errors(capsys):
    code, _, err = run(
        capsys, "family", "--name", "frobenius-euler", "--order", "1",
        "--lambda", "1", "--max-degree", "3")
    assert code == EXIT_USAGE and "differ from 1" in err
    code, _, _ = run(capsys, "family", "--name", "legendre", "--max-degree", "3")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "family", "--name", "euler", "--lambda", "2", "--max-degree", "3")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "family", "--name", "frobenius-euler", "--max-degree", "3")
    assert code == EXIT_USAGE


def test_family_csv_round_trip(capsys):
    code, out, _ = run(
        capsys, "family", "--name", "bernoulli", "--order", "1",
        "--max-degree", "3", "--format", "csv")
    assert code == EXIT_OK
    rows = parse_table_csv(out)
    assert rows[2] == [F(1, 6), F(-1), F(1)]


def test_connect_euler_to_hermite_matches_t1(capsys):
    code, out, _ = run(capsys, "connect", "--from", "euler:1", "--to", "hermite", "--max-n", "4")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["routes_agree"] is True
    for n, row in enumerate(doc["rows"]):
        assert row["coefficients"] == [identities.t1_coeff(n, k, 1) for k in range(n + 1)]


def test_connect_identity(capsys):
    code, out, _ = run(capsys, "connect", "--from", "hermite", "--to", "hermite", "--max-n", "5")
    assert code == EXIT_OK
    doc = parse_document(out)
    for n, row in enumerate(doc["rows"]):
        assert row["coefficients"] == [F(int(k == n)) for k in range(n + 1)]


def test_connect_csv(capsys):
    code, out, _ = run(
        capsys, "connect", "--from", "hermite", "--to", "bernoulli:2",
        "--max-n", "4", "--format", "csv")
    assert code == EXIT_OK
    rows = parse_table_csv(out)
    assert len(rows) == 5
    assert len(rows[3]) == 4


def loaded_modules(code):
    """The modules in sys.modules after a fresh interpreter runs code."""
    script = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclasses_csv_or_json():
    # against a bare interpreter in the same environment, so site hooks do not count
    added = loaded_modules("import umbra.cli") - loaded_modules("pass")
    assert "umbra.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "json",
                        "argparse", "gettext", "locale"}, added


def _as_text(value):
    """value with every Fraction in it written back as text."""
    if isinstance(value, dict):
        return {key: _as_text(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_as_text(v) for v in value]
    return str(value) if isinstance(value, F) else value


@pytest.mark.parametrize("argv, corrupted", [
    ("family --name hermite --max-degree 6", []),
    ("family --name frobenius-euler --order 2 --lambda=-3/2 --max-degree 5", []),
    ("connect --from euler:1 --to hermite --max-n 0", []),
    ("connect --from frobenius-euler:3:-2/3 --to bernoulli:4 --max-n 9", []),
    ("verify --theorems all --max-n 4 --orders 0,2", []),
    ("verify --theorems t1,t8 --max-n 5 --orders 2 --lambdas=1/2,3", [("t1", 2, 0), ("t8", 4, 1)]),
    ("verify --theorems t1,t2 --max-n 3 --orders 1", []),
], ids=["hermite", "frobenius-euler", "connect-0", "connect-9", "grid", "fail", "no-lambdas"])
def test_documents_are_written_as_json_dumps_writes_them(
        capsys, monkeypatch, corrupt_entry, argv, corrupted):
    import umbra.cli as cli

    docs, emit = [], cli._emit_table
    monkeypatch.setattr(cli, "_emit_table",
                        lambda doc, fmt, out: (docs.append(doc), emit(doc, fmt, out))[1])
    for entry in corrupted:
        corrupt_entry(*entry)
    code, out, _ = run(capsys, *argv.split())
    assert code == (EXIT_IDENTITY_FAILURE if corrupted else EXIT_OK)
    [doc] = docs
    assert out == json.dumps(doc, indent=2) + "\n"
    assert _as_text(parse_document(out)) == doc


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorems", "all", "--max-n", "5", "--orders", "0,1,2")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["all_pass"] is True
    cells = {(r["theorem"], r["order"]) for r in doc["reports"]}
    assert ("t6", 6) in cells  # auto-selected just-above-range order
    assert all(r["status"] == "PASS" for r in doc["reports"])


def test_verify_selected_subset_keeps_canonical_order(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "t5,t1", "--max-n", "4")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["grid"]["theorems"] == ["t1", "t5"]
    assert doc["grid"]["orders"] == [0, 1, 2, 3]


def test_verify_t6_explicit_regime_violation(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "t6", "--max-n", "5", "--orders", "3")
    assert code == EXIT_USAGE
    assert "t6" in err


def test_verify_t7_explicit_order_above_max_n_is_refused(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "t7", "--max-n", "2", "--orders", "5")
    assert code == EXIT_USAGE
    assert "t7" in err


def test_verify_all_leaves_out_t7_orders_above_max_n(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "all", "--max-n", "2")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["all_pass"] is True
    assert [r["order"] for r in doc["reports"] if r["theorem"] == "t7"] == [0, 1, 2]
    assert len(doc["reports"]) == 32


def test_verify_lambda_one_rejected(capsys):
    code, _, _ = run(
        capsys, "verify", "--theorems", "t8", "--max-n", "6", "--orders", "2",
        "--lambdas", "1")
    assert code == EXIT_USAGE
    # --lambda is an accepted spelling for the sample list
    code, _, _ = run(
        capsys, "verify", "--theorems", "t8", "--max-n", "6", "--orders", "2",
        "--lambda", "1")
    assert code == EXIT_USAGE
    code, out, _ = run(
        capsys, "verify", "--theorems", "t8", "--max-n", "4", "--orders", "1",
        "--lambda", "3")
    assert code == EXIT_OK
    assert parse_document(out)["grid"]["lambdas"] == ["3"]


def test_verify_checks_a_repeated_lambda_once(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "t3", "--max-n", "2", "--lambdas=2,2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["grid"]["lambdas"] == ["2", "2"]  # the grid echoes the list as given
    assert [report["lambdas"] for report in doc["reports"]] == [["2"]] * 4


def test_verify_symbolic_lambda_counts(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorems", "t3", "--max-n", "4", "--orders", "1,2",
        "--symbolic-lambda")
    assert code == EXIT_OK
    doc = parse_document(out)
    for report in doc["reports"]:
        assert len(report["lambdas"]) == 4 + report["order"] + 1


def test_verify_csv_refused(capsys):
    code, _, _ = run(
        capsys, "verify", "--theorems", "t1", "--max-n", "3", "--format", "csv")
    assert code == EXIT_USAGE


def test_verify_reports_failure_with_exit_one(capsys, corrupt_entry):
    corrupt_entry("t1", 2, 0)
    code, out, _ = run(capsys, "verify", "--theorems", "t1,t2", "--max-n", "3", "--orders", "1")
    assert code == EXIT_IDENTITY_FAILURE
    doc = parse_document(out)
    assert doc["all_pass"] is False
    by_theorem = {r["theorem"]: r for r in doc["reports"]}
    assert by_theorem["t1"]["status"] == "FAIL"
    assert by_theorem["t1"]["first_failure"]["n"] == 2
    assert by_theorem["t1"]["first_failure"]["k"] == 0
    assert by_theorem["t2"]["status"] == "PASS"


def test_fail_report_parses_back_to_the_in_memory_mismatch(capsys, corrupt_entry):
    corrupt_entry("t1", 2, 0)
    corrupt_entry("t8", 4, 1)
    code, out, _ = run(
        capsys, "verify", "--theorems", "t1,t8", "--max-n", "5", "--orders", "2",
        "--lambdas=1/2,3")
    assert code == EXIT_IDENTITY_FAILURE
    parsed = {}
    for report in parse_document(out)["reports"]:
        f = report["first_failure"]
        parsed[report["theorem"]] = identities.Mismatch(
            f["n"], f["k"], f["expected"], f["got"], f["lambda"])
    for tid, failure in parsed.items():
        assert failure == verify_theorem(tid, 5, 2, lambdas=(F(1, 2), F(3))).first_failure
        assert isinstance(failure.expected, F) and isinstance(failure.got, F)
    assert parsed["t1"].lam is None and isinstance(parsed["t8"].lam, F)


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--theorems", "t1,t8", "--max-n", "4", "--orders", "1,2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


class EnvironReads(MutableMapping):
    """os.environ, noting each key read; iterating it reads every key, noted as "*"."""

    def __init__(self, environ):
        self.environ, self.read = environ, []

    def __getitem__(self, key):
        self.read.append(key)
        return self.environ[key]

    def __iter__(self):
        self.read.append("*")
        return iter(self.environ)

    def __len__(self):
        return len(self.environ)

    def __setitem__(self, key, value):
        self.environ[key] = value

    def __delitem__(self, key):
        del self.environ[key]


def test_well_formed_lines_read_no_environment_variable(capsys, monkeypatch):
    lines = [("verify", "--theorems", "t1,t4", "--max-n", "4", "--orders", "0,1"),
             ("connect", "--from", "euler:1", "--to", "hermite", "--max-n", "3"),
             ("family", "--name", "hermite", "--max-degree", "3"),
             ("--version",)]
    plain = [run(capsys, *argv) for argv in lines]
    assert all(code == EXIT_OK for code, _, _ in plain)
    reads = EnvironReads(os.environ)
    monkeypatch.setattr(os, "environ", reads)
    for argv, before in zip(lines, plain):
        assert run(capsys, *argv) == before
        assert reads.read == [], argv
    # the recorder sees what argparse reads: it sizes help text to the terminal
    assert run(capsys, "verify", "--help")[0] == EXIT_OK
    assert "COLUMNS" in reads.read


def test_json_round_trip_equals_in_memory_values(capsys):
    from umbra import connection_coeffs, sheffer_pair_of
    from umbra.families import bernoulli, hermite

    _, out, _ = run(capsys, "connect", "--from", "hermite", "--to", "bernoulli:2", "--max-n", "6")
    doc = parse_document(out)
    src = sheffer_pair_of(hermite(), 6)
    tgt = sheffer_pair_of(bernoulli(2), 6)
    matrix = connection_coeffs(src, tgt, 6)
    for n, row in enumerate(doc["rows"]):
        assert tuple(row["coefficients"]) == matrix.rows[n]


def test_connect_exits_three_when_routes_disagree(capsys, monkeypatch):
    import umbra.cli as cli

    def corrupted(source, target, n_max):
        return tuple((7,) * (n + 1) for n in range(n_max + 1)), 1

    monkeypatch.setattr(cli, "_connection_table", corrupted)
    code, out, err = run(capsys, "connect", "--from", "euler:1", "--to", "hermite", "--max-n", "3")
    assert code == 3
    assert out == ""
    assert "disagree" in err


# The pairs of the kernel mutant sweep: Appell to Hermite, Hermite to Appell,
# and two Appell pairs with orders and lambdas on both sides.
MUTANT_PAIRS = [
    ("euler:1", "hermite"),
    ("hermite", "bernoulli:2"),
    ("frobenius-euler:2:1/3", "euler:1"),
    ("bernoulli:3", "frobenius-euler:1:2"),
]

# connect's stderr when the transfer table fails its check; a crash also exits 3,
# with an "error: unexpected" line instead, and must not count as a catch
DISAGREE = "error: the transfer-formula table and the recombined Sheffer tables disagree\n"


def _connect_codes(capsys, n_max):
    """connect's exit code on each of MUTANT_PAIRS; every exit 3 must be the disagree line."""
    codes = []
    for source, target in MUTANT_PAIRS:
        code, out, err = run(
            capsys, "connect", "--from", source, "--to", target, "--max-n", str(n_max))
        if code == EXIT_INCONSISTENT:
            assert (out, err) == ("", DISAGREE), (source, target)
        codes.append(code)
    return codes


def test_connect_inverts_the_source_delta_series_only(capsys, monkeypatch):
    inverted = []
    invert = TruncatedSeries.comp_inverse

    def counted(self):
        inverted.append(self)
        return invert(self)

    monkeypatch.setattr(TruncatedSeries, "comp_inverse", counted)
    code, _, err = run(capsys, "connect", "--from", "hermite", "--to", "bernoulli:2", "--max-n", "6")
    assert (code, err) == (EXIT_OK, "")
    assert inverted == [TruncatedSeries.t(6) / 2]  # Hermite's f; Bernoulli's is t


def test_a_passing_connect_solves_nothing(capsys, monkeypatch):
    import umbra.cli as cli
    import umbra.umbral as umbral

    def refuse(*args):
        raise AssertionError("a passing connect built or solved the second route")

    for name in ("_solve_in_basis", "sheffer_polys", "connection_oracle", "_sheffer_table",
                 "connection_coeffs", "ConnectionMatrix"):
        for module in (umbral, identities, cli):  # connect checks through identities
            monkeypatch.setattr(module, name, refuse, raising=module is umbral)
    for source, target in MUTANT_PAIRS:
        code, out, err = run(capsys, "connect", "--from", source, "--to", target, "--max-n", "6")
        assert (code, err) == (EXIT_OK, ""), (source, target)
        assert parse_document(out)["routes_agree"] is True


def test_no_walk_expands_a_table(capsys, monkeypatch, corrupt_entry):
    # every built-in family is Appell, so the walk of `_first_failing_row` decides each
    # row, row 0 among them, by its tie to the row before it and its constant term: a
    # check names its first failing row, or none, in O(N^2), from the numbers alone
    walk, checks = identities._first_failing_row, []

    def counted(*args):
        checks.append(args)
        return walk(*args)

    monkeypatch.setattr(identities, "_first_failing_row", counted)
    with walks_expand_no_table():
        for argv in ("connect --from frobenius-euler:3:1/3 --to bernoulli:4 --max-n 60",
                     "verify --theorems all --max-n 10 --orders 0,1,2,3,4",
                     "verify --theorems t3,t8,remark --max-n 10 --orders 0,2,4 --symbolic-lambda"):
            checks.clear()
            code, _, err = run(capsys, *argv.split())
            assert (code, err) == (EXIT_OK, "") and checks, argv
        # a FAIL is named the same way, then solved in its row alone
        for tid, r, n, k, expected, lam in (
                ("t1", 2, 2, 0, F(1), None), ("t6", 11, 10, 0, F(134037325312, 3), None),
                ("t7", 3, 10, 10, F(1024), None), ("remark", 4, 7, 3, F(126560), F(-1))):
            corrupt_entry(tid, n, k)
            failure = verify_theorem(tid, 10, r).first_failure
            assert failure == identities.Mismatch(n, k, expected, expected + 1, lam), tid


# (argv, exit code, sha256 of stdout), pinned while these documents were still built
# from Polys; the FAIL verify runs with t1's entry (2, 0) and t8's (4, 1) corrupted.
NO_POLY_RUNS = [
    ("verify --theorems t1,t8 --max-n 5 --orders 2 --lambdas=1/2,3", EXIT_IDENTITY_FAILURE,
     "b007da70c9766d5ab68bf586c7df335fea59b74f53119180086a862f278f47c4"),
    ("connect --from frobenius-euler:2:1/3 --to euler:1 --max-n 6", EXIT_OK,
     "a59d6facf13c4788418b1a0110ba56605efe30b402373608bcc1aed91d5289d4"),
    ("family --name frobenius-euler --order 3 --lambda 1/3 --max-degree 8", EXIT_OK,
     "f201d6617bc4993e4a446fc3f42a8fe46b53c1d2585eda5d75968bf63484d794"),
    ("family --name bernoulli --order 4 --max-degree 6 --format csv", EXIT_OK,
     "8bcfa6e7d53e43b659ce00509ed3082bce29e07c66a70d66f06d75667f11c621"),
]


def test_no_cli_path_builds_a_poly(capsys, monkeypatch, corrupt_entry):
    import umbra.families as families
    import umbra.umbral as umbral
    from umbra import connection_oracle, sheffer_pair_of

    def no_poly(*args, **kwargs):
        raise AssertionError("a Poly was built")

    for module in (umbral, families):
        monkeypatch.setattr(module, "Poly", no_poly)
    monkeypatch.setattr(families, "_store", {})  # every table is built under the stub
    corrupt_entry("t1", 2, 0)
    corrupt_entry("t8", 4, 1)
    for argv, want, digest in NO_POLY_RUNS:
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (want, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    for source, target in MUTANT_PAIRS:
        src, tgt = (sheffer_pair_of(parse_family_descriptor(d), 6) for d in (source, target))
        assert connection_oracle(src, tgt, 6) == connection_coeffs(src, tgt, 6), (source, target)


def test_verify_runs_no_series_code(capsys, monkeypatch):
    # the stored tables come from finite integer sums, so no kernel mistake can
    # cancel from both sides of a verify cell
    argv = ("verify", "--theorems", "all", "--max-n", "8", "--orders", "0,1,2,3,4")
    monkeypatch.setattr(families, "_store", {})
    want = run(capsys, *argv)

    def refuse(*args):
        raise AssertionError("verify ran series code")

    for name in ("__init__", "compose", "reciprocal", "comp_inverse", "exp"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    monkeypatch.setattr(families, "sheffer_pair_of", refuse)
    monkeypatch.setattr(umbral, "_sheffer_table", refuse)
    families._store.clear()
    assert run(capsys, *argv) == want


def _result_changed(method, k, change):
    """method, with coefficient k of the series it returns replaced by change(coefficient)."""
    def mutated(self, *args):
        coeffs = list(method(self, *args).coeffs)
        if k < len(coeffs):
            coeffs[k] = change(coeffs[k])
        return TruncatedSeries(coeffs)
    return mutated


def _patch_kernel(monkeypatch, name, mutant):
    """Bind mutant in place of series.<name> in each module that imports that function."""
    original = getattr(series, name)
    for module in (series, umbral, families):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)


def _numerator_changed(k, change):
    """Wrap a function returning an integer vector (nums, d): numerator k becomes change(x, d)."""
    def wrap(fn):
        def mutated(*args):
            nums, d = fn(*args)
            nums = list(nums)
            if k < len(nums):
                nums[k] = change(nums[k], d)
            return nums, d
        return mutated
    return wrap


def _entry_moved(convolve):
    """An integer convolution, with entry 2 of each product it returns moved by one."""
    def mutated(*args):
        out = convolve(*args)
        if len(out) > 2:
            out[2] += 1
        return out
    return mutated


def _numerator_head_only(quotient):
    """A quotient on divided powers that reads only a_0 of its numerator a."""
    def mutated(numerator, series):
        a, da = numerator
        return quotient(([a[0]] + [0] * (len(a) - 1), da), series)
    return mutated


def test_connect_catches_a_kernel_mutant(capsys, monkeypatch):
    # the transfer table runs the kernel and the tables it is checked against do not;
    # exp builds Hermite's g in the pair
    monkeypatch.setattr(families, "_store", {})
    monkeypatch.setattr(TruncatedSeries, "exp", _result_changed(TruncatedSeries.exp, 4, operator.neg))
    codes = _connect_codes(capsys, 6)
    assert EXIT_INCONSISTENT in codes, codes


@pytest.mark.parametrize("name, wrap", [
    ("_binomial_quotient", _numerator_changed(3, lambda x, d: 2 * x)),
    ("_binomial_quotient", _numerator_head_only),
    ("_compose", _numerator_changed(3, lambda x, d: x + d)),
    ("_binomial_convolve", _entry_moved)],
    ids=["quotient", "quotient-numerator", "compose", "binomial"])
def test_connect_catches_an_integer_kernel_mutant(capsys, monkeypatch, name, wrap):
    # the integer functions that the transfer table runs end to end: each composition, the
    # quotient h(fbar)/g(fbar), and the binomial convolution under the Appell pair powers
    monkeypatch.setattr(families, "_store", {})
    _patch_kernel(monkeypatch, name, wrap(getattr(series, name)))
    codes = _connect_codes(capsys, 6)
    assert EXIT_INCONSISTENT in codes, codes


def test_general_series_catch_the_convolution_mutant(monkeypatch):
    # built-in connect convolves no ordinary series (every fbar is c t), so the mutant
    # is caught where general series are multiplied: the product, a composition into a
    # series with a term past t, and comp_inverse of one, each against a Fraction oracle
    # or the inverse of t + t^2 (Catalan numbers, signed)
    _patch_kernel(monkeypatch, "_int_convolve", _entry_moved(series._int_convolve))
    a, b = TruncatedSeries([1, 2, 3, 4]), TruncatedSeries([F(1, 2), -1, 5, 7])
    f = TruncatedSeries([0, 1, 1, 0, 0])
    assert (a * b).coeffs != tuple(naive_product(a.coeffs, b.coeffs, 3))
    assert a.compose(f) != horner_compose(a, f)
    assert f.comp_inverse() != TruncatedSeries([0, 1, -1, 2, -5])


def test_connect_on_built_in_pairs_takes_the_closed_forms_for_c_t(capsys, monkeypatch):
    # every built-in fbar and l(fbar) is c t, so connect composes, inverts and sweeps the
    # table in closed form: no ordinary convolution and no column sweep
    calls = []

    def counted(module, name):
        function = getattr(module, name)

        def wrapped(*args):
            calls.append(name)
            return function(*args)
        monkeypatch.setattr(module, name, wrapped)

    counted(series, "_int_convolve")
    counted(umbral, "_binomial_convolve")  # the sweep's; the pair powers call families' own
    monkeypatch.setattr(families, "_store", {})
    assert _connect_codes(capsys, 6) == [EXIT_OK] * len(MUTANT_PAIRS)
    assert calls == []
    # a pair whose f has a term past t takes both general loops, so the counters count
    source, target = (umbral.ShefferPair(TruncatedSeries([1, 1, 1, 1]), TruncatedSeries(f))
                      for f in ([0, 1, 1, 1], [0, 1, 0, 1]))
    umbral._connection_table(source, target, 3)
    assert set(calls) == {"_int_convolve", "_binomial_convolve"}


def _g3_doubled(kind):
    def wrap(build):
        def doubled(spec, n_max):
            a, s = build(spec, n_max)
            if spec.kind is kind and n_max >= 3:
                a[3] *= 2
            return a, s
        return doubled
    return "_appell_egf", wrap


def _hermite_number_moved(step):
    def wrap(build):
        def moved(spec, n_max):
            nums, d = build(spec, n_max)
            if spec.kind is FamilyKind.HERMITE and n_max >= 3:
                nums = (*nums[:3], nums[3] + step * d, *nums[4:])
            return nums, d
        return moved
    return "_build_numbers", wrap


@pytest.mark.parametrize("mutant", [
    _g3_doubled(FamilyKind.BERNOULLI), _g3_doubled(FamilyKind.EULER),
    _g3_doubled(FamilyKind.FROBENIUS_EULER), _hermite_number_moved(1), _hermite_number_moved(-1)],
    ids=["bernoulli-g3", "euler-g3", "frobenius-euler-g3", "hermite+1", "hermite-1"])
def test_a_wrong_store_table_fails_verify_and_connect(capsys, monkeypatch, mutant):
    name, wrap = mutant
    monkeypatch.setattr(families, "_store", {})
    monkeypatch.setattr(families, name, wrap(getattr(families, name)))
    code, out, _ = run(capsys, "verify", "--theorems", "all", "--max-n", "6", "--orders", "2")
    assert code == EXIT_IDENTITY_FAILURE
    statuses = [report["status"] for report in parse_document(out)["reports"]]
    assert "FAIL" in statuses
    if name == "_build_numbers":  # a Hermite number moved: every cell is checked against
        # the stored Hermite table and no closed form reads it, so no cell cancels the fault
        assert statuses == ["FAIL"] * len(identities.THEOREM_IDS), statuses
    codes = _connect_codes(capsys, 6)
    assert EXIT_INCONSISTENT in codes, codes


# each pipe test runs its child buffered and unbuffered, whatever the caller's shell sets
STDOUT_MODES = pytest.mark.parametrize(
    "stdout_mode", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])


@STDOUT_MODES
def test_a_closed_stdout_exits_141_quietly(stdout_mode):
    # about 1.2 MB of CSV, more than a pipe holds, so the writer meets the closed end
    argv = "family --name hermite --max-degree 200 --format csv".split()
    with subprocess.Popen([sys.executable, "-m", "umbra.cli", *argv], env=cli_env(**stdout_mode),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b"n,c0,")
    assert (code, err) == (EXIT_BROKEN_PIPE, b"") and code == 141


# the --version fast path, and help and version text printed by argparse
@STDOUT_MODES
@pytest.mark.parametrize("argv", ["--version", "-h", "verify -h", "--vers"])
def test_version_into_a_closed_stdout_exits_141_quietly(argv, stdout_mode):
    read, write = os.pipe()
    os.close(read)  # closed before the child starts, so its one write meets the closed end
    try:
        done = subprocess.run([sys.executable, "-m", "umbra.cli", *argv.split()], stdout=write,
                              stderr=subprocess.PIPE, env=cli_env(**stdout_mode), timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_BROKEN_PIPE, b"")


def test_connect_catches_a_triangle_without_its_factorials(capsys, triangle_without_factorials):
    assert _connect_codes(capsys, 2) == [EXIT_INCONSISTENT] * len(MUTANT_PAIRS)


def test_connect_catches_one_entry_moved_by_one_over_its_denominator(capsys, monkeypatch):
    import umbra.cli as cli

    n_max = 5
    rng = random.Random(20130222)
    for source, target in MUTANT_PAIRS:
        places = [(0, 0), (n_max, n_max)] + [
            (n, rng.randint(0, n)) for n in rng.sample(range(n_max + 1), 2)]
        for n, k in places:
            step = rng.choice([-1, 1])

            def moved(src, tgt, n_max, n=n, k=k, step=step):
                rows, d = umbral._connection_table(src, tgt, n_max)
                rows = [list(row) for row in rows]
                rows[n][k] += step  # by 1/d, no more than 1 over row n's own denominator
                return rows, d

            monkeypatch.setattr(cli, "_connection_table", moved)
            code, out, err = run(
                capsys, "connect", "--from", source, "--to", target, "--max-n", str(n_max))
            assert (code, out, err) == (EXIT_INCONSISTENT, "", DISAGREE), (source, target, n, k)


def test_bad_arguments_exit_two(capsys):
    assert main(["bogus"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["family", "--name", "hermite"]) == EXIT_USAGE  # missing --max-degree
    assert main(["verify", "--theorems", "t1,tx", "--max-n", "3"]) == EXIT_USAGE
    assert main(["family", "--name", "hermite", "--max-degree", "-2"]) == EXIT_USAGE
    capsys.readouterr()
    # the CLI or the library refuses these before any document is written
    for argv in (
        "family --name euler --order -1 --max-degree 3",
        "family --name hermite --max-degree -1",
        "connect --from euler:1 --to hermite --max-n -1",
        "connect --from euler:-1 --to hermite --max-n 3",
        "verify --theorems t1 --max-n -1",
        "verify --theorems t7 --max-n -1",
        "verify --theorems all --max-n 3 --orders=-1,2",
        "connect --from frobenius-euler:1 --to hermite --max-n 2",
        "family --name hermite --lambda 2 --max-degree 2",
        "family --name hermite --order -3 --max-degree 2",
        "connect --from hermite:-1 --to euler --max-n 2",
        "verify --theorems , --max-n 3",
        "verify --theorems t1 --max-n 3 --orders x",
        "verify --theorems t1 --max-n 3 --orders ,",
        "verify --theorems t3 --max-n 3 --lambdas ,",
        "verify --theorems t1 --max-n 2 --orders 1 --lambdas 1",
    ):
        assert main(argv.split()) == EXIT_USAGE, argv
        assert capsys.readouterr().out == "", argv


@pytest.mark.parametrize("argv", [
    "connect --from bernoulli:99999999999999999999 --to hermite --max-n 1",
    "connect --from hermite:1001 --to euler --max-n 2",
    "connect --from euler:1 --to hermite --max-n 1001",
    "family --name euler --order 1001 --max-degree 2",
    "family --name hermite --max-degree 1001",
    "verify --theorems t1 --max-n 1001",
    "verify --theorems t1 --max-n 3 --orders 1,1001",
    "verify --theorems t3 --max-n 2 --orders=99999999999999999999 --symbolic-lambda",
])
def test_sizes_above_the_ceiling_exit_two_before_any_table(capsys, monkeypatch, argv):
    import umbra.cli as cli

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    for name in ("family_document", "connection_document", "verify_theorem"):
        monkeypatch.setattr(cli, name, no_table)  # a call would exit 3, not 2
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (EXIT_USAGE, ""), argv
    assert err.startswith("error: ") and "must be at most 1000" in err, err
    assert err.count("\n") == 1, err


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("umbra ")


def test_main_in_process_freezes_nothing(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "verify", "--theorems", "t1", "--max-n", "3")[0] == EXIT_OK
    assert gc.get_freeze_count() == frozen


def umbra_process(*argv, probe=""):
    """(exit code, stdout, stderr) of `python -m umbra.cli argv`; a probe's code runs first."""
    args = ["-m", "umbra.cli", *argv]
    if probe:  # the same run as -m makes, from -c
        args = ["-c", f"{probe}\nimport runpy, sys\nsys.argv[1:] = {list(argv)!r}\n"
                      "runpy.run_module('umbra.cli', run_name='__main__', alter_sys=True)"]
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=cli_env(), timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_a_cli_process_exits_with_mains_code_and_a_frozen_heap():
    assert umbra_process("--version") == (EXIT_OK, f"umbra {__version__}\n", "")
    code, out, err = umbra_process("verify", "--theorems", "t7", "--max-n", "2", "--orders", "5")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # atexit handlers run after the entry's sys.exit, before the exit-time collections
    probe = "import atexit, gc\natexit.register(lambda: print(gc.get_freeze_count()))"
    code, out, _ = umbra_process("--version", probe=probe)
    assert code == EXIT_OK and int(out.splitlines()[-1]) > 0, out


def test_a_well_formed_process_loads_no_argparse_and_help_still_works():
    # printed at exit: which of argparse and the gettext and locale it imports the run loaded
    probe = ("import atexit, sys\natexit.register(lambda: print(sorted("
             "{'argparse', 'gettext', 'locale'} & set(sys.modules))))")
    code, out, _ = umbra_process("verify", "--theorems", "t1,t8", "--max-n=3", probe=probe)
    assert code == EXIT_OK and out.splitlines()[-1] == "[]", out[-200:]
    assert json.loads(out[:out.rindex("[]")])["all_pass"] is True
    code, out, err = umbra_process("verify", "--help")
    assert (code, err) == (EXIT_OK, "") and out.startswith("usage: umbra verify "), out


def test_a_csv_table_is_written_without_the_csv_module():
    probe = "import atexit, sys\natexit.register(lambda: print('csv' in sys.modules))"
    code, out, _ = umbra_process("family", "--name", "hermite", "--max-degree", "3",
                                 "--format", "csv", probe=probe)
    assert (code, out) == (EXIT_OK, "n,c0,c1,c2,c3\n0,1,,,\n1,0,2,,\n2,-2,0,4,\n"
                                    "3,0,-12,0,8\nFalse\n")


def test_the_umbra_script_and_python_m_call_one_entry():
    root = Path(__file__).resolve().parent.parent
    [entry] = re.findall(r'^umbra = "umbra\.cli:(\w+)"$', (root / "pyproject.toml").read_text(),
                         re.MULTILINE)
    source = (root / "src" / "umbra" / "cli.py").read_text()
    assert source.endswith(f'\nif __name__ == "__main__":\n    {entry}()\n')
    assert entry != "main"  # main() returns its code and leaves the heap as it was


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    import umbra.cli as cli

    def crash(*args, **kwargs):
        raise TypeError("boom\nsecond line")

    monkeypatch.setattr(cli, "verify_theorem", crash)
    code, out, err = run(capsys, "verify", "--theorems", "t1", "--max-n", "3")
    assert code == EXIT_INCONSISTENT == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "TypeError" in err
