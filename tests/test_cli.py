import json
from fractions import Fraction as F

import pytest

import umbra.identities as identities
from umbra.cli import (
    EXIT_IDENTITY_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_document,
    parse_family_descriptor,
    parse_rational,
    parse_table_csv,
)
from umbra.families import FamilyKind


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 1/2 ") == F(1, 2)
    for bad in ("1.5", "x", "3/0", "1/2/3", ""):
        with pytest.raises(Exception):
            parse_rational(bad)


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


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    base = identities.t1_coeff

    def corrupted(n, k, r):
        value = base(n, k, r)
        return value + 1 if (n, k) == (2, 0) else value

    monkeypatch.setattr(identities, "t1_coeff", corrupted)
    code, out, _ = run(capsys, "verify", "--theorems", "t1,t2", "--max-n", "3", "--orders", "1")
    assert code == EXIT_IDENTITY_FAILURE
    doc = parse_document(out)
    assert doc["all_pass"] is False
    by_theorem = {r["theorem"]: r for r in doc["reports"]}
    assert by_theorem["t1"]["status"] == "FAIL"
    assert by_theorem["t1"]["first_failure"]["n"] == 2
    assert by_theorem["t1"]["first_failure"]["k"] == 0
    assert by_theorem["t2"]["status"] == "PASS"


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--theorems", "t1,t8", "--max-n", "4", "--orders", "1,2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_thread_env_does_not_change_output(capsys, monkeypatch):
    args = ("verify", "--theorems", "t1,t4", "--max-n", "4", "--orders", "0,1")
    _, sequential, _ = run(capsys, *args)
    monkeypatch.setenv("UMBRA_THREADS", "4")
    code, threaded, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert threaded == sequential
    monkeypatch.setenv("UMBRA_THREADS", "two")
    code, _, _ = run(capsys, *args)
    assert code == EXIT_USAGE


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
    from umbra import ConnectionMatrix

    def corrupted(source, target, n_max):
        rows = [[F(7)] * (n + 1) for n in range(n_max + 1)]
        return ConnectionMatrix(rows)

    monkeypatch.setattr(cli, "connection_oracle", corrupted)
    code, out, err = run(capsys, "connect", "--from", "euler:1", "--to", "hermite", "--max-n", "3")
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_bad_arguments_exit_two(capsys):
    assert main(["bogus"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["family", "--name", "hermite"]) == EXIT_USAGE  # missing --max-degree
    assert main(["verify", "--theorems", "t1,tx", "--max-n", "3"]) == EXIT_USAGE
    assert main(["family", "--name", "hermite", "--max-degree", "-2"]) == EXIT_USAGE
    capsys.readouterr()
    # the library refuses these before any document is written
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
    ):
        assert main(argv.split()) == EXIT_USAGE, argv
        assert capsys.readouterr().out == "", argv


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("umbra ")
