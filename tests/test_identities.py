import random
import subprocess
import sys
from fractions import Fraction as F
from functools import cache
from math import comb, factorial

import pytest

import umbra.families as families
import umbra.identities as identities
from umbra import (
    FamilyKind,
    FamilySpec,
    LambdaIsOne,
    RegimeViolation,
    SingularBasis,
    bernoulli,
    connection_oracle,
    euler,
    family_numbers,
    family_poly,
    family_polys,
    frobenius_euler,
    hermite,
    hermite_poly_via_operator,
    lambda_samples,
    remark_coeff,
    sheffer_pair_of,
    stirling2,
    t1_coeff,
    t2_coeff,
    t3_coeff,
    t4_coeff,
    t5_coeff,
    t6_coeff,
    t7_coeff,
    t8_coeff,
    verify_theorem,
)
from umbra.umbral import _solve_in_basis

from conftest import catalog_entry, cell_rows, wrap_row_builder
from test_series import assert_canonical, int_table


def oracle_rows(source_spec, target_spec, n_max):
    src = sheffer_pair_of(source_spec, n_max)
    tgt = sheffer_pair_of(target_spec, n_max)
    return connection_oracle(src, tgt, n_max).rows


# Oracles: the per-(n, k) closed-form bodies, each term recomputed for every
# coefficient.  The library shares the k-independent part of a row instead.

def basis_sum_oracle(numbers, n, k):
    """t1-t3: n! sum_m numbers[n-k-2m] / (k! (n-k-2m)! 2^(k+2m) m!)."""
    tot = F(0)
    for m in range((n - k) // 2 + 1):
        tot += numbers[n - k - 2 * m] / (
            factorial(k) * factorial(n - k - 2 * m) * 2 ** (k + 2 * m) * factorial(m))
    return factorial(n) * tot


def double_sum_oracle(n, k, r, lam):
    """remark, and t4 at lam = -1: Hermite member n-k expanded term by term."""
    tot = F(0)
    for j in range(r + 1):
        for l in range((n - k) // 2 + 1):
            tot += (
                comb(n, k) * comb(r, j) * 2 ** k * (-1) ** l * (-lam) ** (r - j)
                * factorial(n - k) * F(2 * j) ** (n - k - 2 * l)
                / (factorial(l) * factorial(n - k - 2 * l)))
    return tot / (1 - lam) ** r


def hermite_values_oracle(n, k, r, lam):
    """t8, and t5 at lam = -1: Hermite values at 0..r from the Sheffer table."""
    tot = sum(
        comb(r, j) * (-lam) ** (r - j) * family_poly(hermite(), n - k).eval(j)
        for j in range(r + 1))
    return comb(n, k) * 2 ** k * tot / (1 - lam) ** r


@cache
def stirling2_at(l, n):
    return stirling2(l, n)


@cache
def hermite_at(m, j):
    return family_poly(hermite(), m).eval(j)


def stirling_route_oracle(n, k, r):
    """t6, and t7 below k = r: the (j, l) double sum with every term in full.

    Each term is one Fraction; Stirling numbers and Hermite values are cached,
    as the wide tests ask for about 200,000 terms.
    """
    tot = F(0)
    for j in range(k + 1):
        outer = (-1) ** (k - j) * comb(k, j)
        for l in range(n + 1):
            h = hermite_at(n - l, j)
            tot += F(
                outer * 2 ** l * stirling2_at(l + r - k, r - k) * h.numerator * factorial(r - k),
                factorial(l + r - k) * factorial(k) * factorial(n - l) * h.denominator)
    return factorial(n) * tot


def t7_upper_oracle(n, k, r):
    """t7 at and above k = r: one Hermite-values sum."""
    tot = sum(
        comb(r, j) * (-1) ** (r - j) * family_poly(hermite(), n - k + r).eval(j)
        for j in range(r + 1))
    return F(2 ** (k - r) * factorial(n), factorial(k) * factorial(n - k + r)) * tot


ORACLE_N = 12
ORACLE_ORDERS = range(6)
ORACLE_LAMBDAS = lambda_samples(6) + (-1,)  # the int -1 too, as t4 and t5 pass it
# orders above every checked degree, where the r + 1 weights of t4, t5, t8 and
# remark outnumber the coefficients of the Hermite member they weigh
HIGH_ORDERS = range(13, 21)
HIGH_ORDER_N = 8


def oracle_cells(orders=ORACLE_ORDERS, n_max=ORACLE_N):
    for r in orders:
        for n in range(n_max + 1):
            for k in range(n + 1):
                yield n, k, r


def weighted_cells():
    yield from oracle_cells()
    yield from oracle_cells(HIGH_ORDERS, HIGH_ORDER_N)


def assert_exact(got, want, where):
    assert isinstance(got, F), where
    assert got == want, where


def test_t1_t2_match_basis_sum_oracle():
    for n, k, r in oracle_cells():
        for coeff, spec in ((t1_coeff, euler(r)), (t2_coeff, bernoulli(r))):
            want = basis_sum_oracle(family_numbers(spec, n), n, k)
            assert_exact(coeff(n, k, r), want, (coeff.__name__, n, k, r))


def test_t3_matches_basis_sum_oracle():
    for lam in ORACLE_LAMBDAS:
        for n, k, r in oracle_cells():
            want = basis_sum_oracle(family_numbers(frobenius_euler(r, lam), n), n, k)
            assert_exact(t3_coeff(n, k, r, lam), want, (n, k, r, lam))


def test_t4_remark_match_double_sum_oracle():
    for n, k, r in weighted_cells():
        assert_exact(t4_coeff(n, k, r), double_sum_oracle(n, k, r, -1), (n, k, r))
    for lam in ORACLE_LAMBDAS:
        for n, k, r in weighted_cells():
            want = double_sum_oracle(n, k, r, lam)
            assert_exact(remark_coeff(n, k, r, lam), want, (n, k, r, lam))


def test_t5_t8_match_hermite_values_oracle():
    for n, k, r in weighted_cells():
        assert_exact(t5_coeff(n, k, r), hermite_values_oracle(n, k, r, -1), (n, k, r))
    for lam in ORACLE_LAMBDAS:
        for n, k, r in weighted_cells():
            want = hermite_values_oracle(n, k, r, lam)
            assert_exact(t8_coeff(n, k, r, lam), want, (n, k, r, lam))


def test_t6_matches_stirling_route_oracle():
    for r in range(ORACLE_N + 1, ORACLE_N + 4):
        for n in range(ORACLE_N + 1):
            for k in range(n + 1):
                assert_exact(t6_coeff(n, k, r), stirling_route_oracle(n, k, r), (n, k, r))


def test_t7_matches_oracles_on_both_branches():
    for n, k, r in oracle_cells():
        if n >= r:
            want = stirling_route_oracle(n, k, r) if k < r else t7_upper_oracle(n, k, r)
            assert_exact(t7_coeff(n, k, r), want, (n, k, r))


def wide_lambdas(seed):
    """Seeded lambdas of height up to 10^6: one above 1 (so q - p < 0), one in (0, 1),
    one negative, and -1 as a Fraction and as the int t4 and t5 pass."""
    rng = random.Random(seed)
    q = rng.randint(2, 10 ** 6)
    above = F(rng.randint(q + 1, 10 ** 6 + q), q)
    below = F(rng.randint(1, 10 ** 6), rng.randint(10 ** 6 + 1, 2 * 10 ** 6))
    negative = F(-rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
    return above, below, negative, F(-1), -1


WIDE_N = 14


def assert_wide(got, want, where):
    assert_canonical([got], where)
    assert got == want, where


def test_t6_matches_stirling_route_oracle_wide():
    for n in range(WIDE_N + 1):
        for r in range(n + 1, 31):
            for k in range(n + 1):
                assert_wide(t6_coeff(n, k, r), stirling_route_oracle(n, k, r), (n, k, r))


def test_t7_matches_oracles_wide_on_both_branches():
    for r in range(WIDE_N + 1):
        for n in range(r, WIDE_N + 1):
            for k in range(n + 1):
                want = stirling_route_oracle(n, k, r) if k < r else t7_upper_oracle(n, k, r)
                assert_wide(t7_coeff(n, k, r), want, (n, k, r))


@pytest.mark.parametrize("seed", [3, 11])
def test_lambda_forms_match_oracles_at_wide_lambdas(seed):
    lams = wide_lambdas(seed)
    assert lams[0] > 1 and 0 < lams[1] < 1 and lams[2] < 0
    for lam in lams:
        for n, k, r in oracle_cells():
            if n > 10:
                continue
            where = (n, k, r, lam)
            want = basis_sum_oracle(family_numbers(frobenius_euler(r, lam), n), n, k)
            assert_wide(t3_coeff(n, k, r, lam), want, where)
            assert_wide(t8_coeff(n, k, r, lam), hermite_values_oracle(n, k, r, lam), where)
            assert_wide(remark_coeff(n, k, r, lam), double_sum_oracle(n, k, r, lam), where)


@pytest.mark.parametrize("tid", identities.THEOREM_IDS)
def test_builder_row_is_the_solved_row_and_the_public_row(tid):
    n_max, r = 8, {"t6": 9, "t7": 3}.get(tid, 2)
    kind, _ = catalog_entry(tid)
    lam = (F(-7, 3),) if kind is FamilyKind.FROBENIUS_EULER else ()
    spec = FamilySpec(kind, r, *lam)
    hermites, polys = family_polys(hermite(), n_max), family_polys(spec, n_max)
    in_hermite_basis = identities._hermite_table(tid, n_max) is None
    lhs, basis = (polys, hermites) if in_hermite_basis else (hermites, polys)
    solved = _solve_in_basis(int_table(lhs), int_table(basis), range(n_max + 1))
    rows, d = cell_rows(tid, spec, n_max)
    # every row, not only row n_max, whose lift to the table's d is 1
    assert [[F(x, d) for x in row] for row in rows] == solved
    coeff = getattr(identities, f"{tid}_coeff")
    # tN_coeff builds its rows through n, and t7_coeff takes n >= r only
    for n in range(r if tid == "t7" else 0, n_max + 1):
        assert [coeff(n, k, r, *lam) for k in range(n + 1)] == solved[n], n


def test_t1_spot_values():
    assert t1_coeff(0, 0, 0) == 1
    assert t1_coeff(0, 0, 4) == 1
    assert t1_coeff(1, 1, 1) == F(1, 2)
    assert t1_coeff(2, 0, 1) == F(1, 2)


def test_t1_rows_match_oracle():
    for r in range(4):
        rows = oracle_rows(euler(r), hermite(), 8)
        for n in range(9):
            for k in range(n + 1):
                assert t1_coeff(n, k, r) == rows[n][k], (n, k, r)


def test_t2_spot_values():
    assert t2_coeff(0, 0, 2) == 1
    assert t2_coeff(1, 0, 1) == F(-1, 2)
    rows = oracle_rows(bernoulli(2), hermite(), 3)
    for k in range(4):
        assert t2_coeff(3, k, 2) == rows[3][k]


def test_t3_reduces_to_t1_at_minus_one():
    for r in range(4):
        for n in range(9):
            for k in range(n + 1):
                assert t3_coeff(n, k, r, F(-1)) == t1_coeff(n, k, r)


def test_t3_matches_oracle():
    rows = oracle_rows(frobenius_euler(1, F(2)), hermite(), 4)
    assert t3_coeff(2, 1, 1, F(2)) == rows[2][1]
    for n in range(5):
        for k in range(n + 1):
            assert t3_coeff(n, k, 1, F(2)) == rows[n][k]


def test_t4_spot_values():
    assert t4_coeff(0, 0, 0) == 1
    assert t4_coeff(0, 0, 3) == 1
    assert t4_coeff(1, 0, 1) == 1
    assert t4_coeff(1, 1, 1) == 2


def test_t4_row_matches_oracle():
    rows = oracle_rows(hermite(), euler(1), 4)
    for n in range(5):
        for k in range(n + 1):
            assert t4_coeff(n, k, 1) == rows[n][k]


def test_t4_equals_t5_on_grid():
    for r in range(5):
        for n in range(9):
            for k in range(n + 1):
                assert t4_coeff(n, k, r) == t5_coeff(n, k, r), (n, k, r)


def test_t5_diagonal_and_spot_values():
    for n in range(7):
        for r in range(4):
            assert t5_coeff(n, n, r) == 2 ** n
    assert t5_coeff(2, 0, 1) == 0


def test_t6_regime_and_values():
    assert t6_coeff(0, 0, 1) == 1
    with pytest.raises(RegimeViolation):
        t6_coeff(2, 1, 2)
    rows = oracle_rows(hermite(), bernoulli(2), 1)
    for k in range(2):
        assert t6_coeff(1, k, 2) == rows[1][k]
    rows = oracle_rows(hermite(), bernoulli(5), 2)
    for n in range(3):
        for k in range(n + 1):
            assert t6_coeff(n, k, 5) == rows[n][k]


def test_t7_order_zero_gives_monomial_coefficients():
    for n in range(7):
        h = family_poly(hermite(), n)
        for k in range(n + 1):
            assert t7_coeff(n, k, 0) == h.coeff(k)


def test_t7_rows_match_oracle_and_exercise_both_branches():
    rows = oracle_rows(hermite(), bernoulli(1), 2)
    for n in range(1, 3):
        for k in range(n + 1):
            assert t7_coeff(n, k, 1) == rows[n][k]
    # n = r boundary hits the k < r branch (k = 0, 1) and the k >= r branch (k = 2)
    rows = oracle_rows(hermite(), bernoulli(2), 2)
    for k in range(3):
        assert t7_coeff(2, k, 2) == rows[2][k]
    with pytest.raises(RegimeViolation):
        t7_coeff(1, 0, 2)


def test_t8_reduces_to_t5_at_minus_one():
    for r in range(4):
        for n in range(9):
            for k in range(n + 1):
                assert t8_coeff(n, k, r, F(-1)) == t5_coeff(n, k, r)


def test_t8_diagonal_is_power_of_two():
    for lam in (F(2), F(1, 2), F(-3)):
        for n in range(6):
            assert t8_coeff(n, n, 2, lam) == 2 ** n


def test_t8_rows_match_oracle():
    rows = oracle_rows(hermite(), frobenius_euler(2, F(1, 2)), 3)
    for n in range(4):
        for k in range(n + 1):
            assert t8_coeff(n, k, 2, F(1, 2)) == rows[n][k]


def test_remark_agrees_with_t8():
    for lam in (F(-1), F(2), F(1, 2)):
        for r in range(4):
            for n in range(9):
                for k in range(n + 1):
                    assert remark_coeff(n, k, r, lam) == t8_coeff(n, k, r, lam)


def test_remark_spot_values():
    assert remark_coeff(0, 0, 0, F(2)) == 1
    for n in range(7):
        for k in range(n + 1):
            assert remark_coeff(n, k, 2, F(-1)) == t4_coeff(n, k, 2)


def test_lambda_one_rejected_everywhere():
    for fn in (t3_coeff, t8_coeff, remark_coeff):
        with pytest.raises(LambdaIsOne):
            fn(1, 0, 1, F(1))


def test_coefficient_argument_validation():
    with pytest.raises(ValueError):
        t1_coeff(1, 2, 0)
    with pytest.raises(ValueError):
        t4_coeff(2, 1, -1)


def test_lambda_samples():
    samples = lambda_samples(8)
    assert len(samples) == 8
    assert len(set(samples)) == 8
    assert F(1) not in samples
    assert samples[:3] == (F(-1), F(2), F(1, 2))
    # base values come first and are not duplicated
    samples = lambda_samples(4, base=(F(2), F(7)))
    assert samples[:2] == (F(2), F(7))
    assert len(set(samples)) == len(samples) == 4
    with pytest.raises(LambdaIsOne):
        lambda_samples(3, base=(F(1),))


def test_verify_passes_on_modest_grid():
    for tid in ("t1", "t2", "t4", "t5"):
        report = verify_theorem(tid, 8, 2)
        assert report.passed and report.first_failure is None
        assert report.theorem_id == tid
    report = verify_theorem("t7", 8, 3)
    assert report.passed
    report = verify_theorem("t7", 10, 4)  # rows 4..10 hit both sides of the k = 4 split
    assert report.passed
    report = verify_theorem("t6", 4, 6)
    assert report.passed


def test_verify_lambda_theorems():
    report = verify_theorem("t3", 6, 2)
    assert report.passed
    assert report.lambdas == (F(-1), F(2), F(1, 2))
    report = verify_theorem("t8", 6, 2, lambdas=(F(3), F(-5)))
    assert report.passed
    assert report.lambdas == (F(3), F(-5))


def test_verify_checks_a_repeated_lambda_once():
    # a repeated value pulls in no sample that was not given
    assert verify_theorem("t3", 2, 1, lambdas=[2, 2]).lambdas == (F(2),)
    assert verify_theorem("t8", 3, 1, lambdas=["1/2", 3, F(1, 2)]).lambdas == (F(1, 2), F(3))
    assert len(verify_theorem("t3", 2, 1, lambdas=[2, 2], symbolic_lambda=True).lambdas) == 4


def test_verify_symbolic_lambda_sample_count():
    report = verify_theorem("remark", 5, 2, symbolic_lambda=True)
    assert report.passed
    assert len(report.lambdas) == 5 + 2 + 1


def test_verify_regime_errors():
    with pytest.raises(RegimeViolation):
        verify_theorem("t6", 5, 3)
    with pytest.raises(RegimeViolation):
        verify_theorem("t7", 2, 5)  # no degree n <= 2 reaches n >= 5
    with pytest.raises(ValueError):
        verify_theorem("t9", 5, 1)
    with pytest.raises(LambdaIsOne):
        verify_theorem("t8", 4, 1, lambdas=(F(1),))
    with pytest.raises(ValueError):
        verify_theorem("t8", 4, 1, lambdas=())


@pytest.mark.parametrize("tid", identities.THEOREM_IDS)
def test_the_grid_plan_keeps_the_orders_the_regimes_take(tid):
    def takes(n_max, r):
        try:
            identities._require_regime(tid, n_max, r)
        except RegimeViolation:
            return False
        return True

    for orders in [list(range(11))] + [[r] for r in range(11)]:
        for n_max in range(9):
            kept = identities._grid_orders(tid, n_max, orders)
            if tid == "t6":  # one order, the least that _require_regime takes
                assert kept == [min(r for r in range(11) if takes(n_max, r))]
            else:  # each order _require_regime takes, and no other
                assert kept == [r for r in orders if takes(n_max, r)]
    # a negative n_max keeps t7's orders, so that verify_theorem refuses the n_max
    assert identities._grid_orders("t7", -1, [0, 3]) == [0, 3]
    with pytest.raises(ValueError):
        verify_theorem("t7", -1, 0)


def test_t7_holds_below_its_order():
    # a t7 cell checks its rows below r too, which are t6's closed form in t6's regime
    for r in range(17):
        assert verify_theorem("t7", 16, r).passed, r


def test_t7_names_a_fault_below_its_order(corrupt_entry):
    corrupt_entry("t7", 1, 0)
    report = verify_theorem("t7", 10, 3)
    assert report.first_failure == identities.Mismatch(1, 0, F(3), F(4))


def test_verify_reports_first_failure(corrupt_entry):
    corrupt_entry("t1", 3, 1)
    report = verify_theorem("t1", 5, 1)
    assert not report.passed
    assert report.status == "FAIL"
    failure = report.first_failure
    assert failure.n == 3
    # the failure names the wrong closed-form coefficient: expected is the solved value
    assert failure.expected != failure.got
    assert failure.k == 1
    assert failure.got == failure.expected + 1


@pytest.mark.parametrize("tid, n_max, r, n, k, lam", [
    ("t6", 6, 7, 4, 2, None),  # inside the Stirling-route sum
    ("t7", 6, 2, 5, 3, None),  # on the k >= r branch
    ("t8", 5, 2, 4, 1, F(-1)),  # the first lambda sample fails first
    ("t5", 4, 1, 3, 3, None),  # the last entry of a row
])
def test_verify_reports_first_failure_in_every_row_shape(corrupt_entry, tid, n_max, r, n, k, lam):
    assert verify_theorem(tid, n_max, r).passed
    corrupt_entry(tid, n, k)
    failure = verify_theorem(tid, n_max, r).first_failure
    assert (failure.n, failure.k, failure.lam) == (n, k, lam)
    assert failure.got == failure.expected + 1


@pytest.mark.parametrize("tid, r", [
    ("t2", 3),  # a family in the Hermite basis
    ("t7", 0),  # Hermite in the monomial basis, where entry (n, n) moves x^n alone
])
def test_an_entry_off_by_one_is_caught_at_its_place(monkeypatch, tid, r):
    n_max = 8
    clean = cell_rows(tid, FamilySpec(catalog_entry(tid)[0], r), n_max)
    moved = []  # the (n, k, step) of the case at hand, last

    def wrap(build):
        def corrupted(*args):
            rows, d = build(*args)
            n, k, step = moved[-1]
            rows = list(rows)
            rows[n] = [x + step if i == k else x for i, x in enumerate(rows[n])]
            return rows, d
        return corrupted

    wrap_row_builder(monkeypatch, tid, wrap)
    rng = random.Random(20130222)
    cases = [(n, rng.randint(0, n)) for n in rng.sample(range(n_max + 1), 4)]
    for n, k in cases + [(n_max, n_max), (0, 0), (n_max, 0), (n_max // 2, 0)]:
        step = rng.choice([-3, -2, -1, 1, 2, 3])
        moved.append((n, k, step))
        failure = verify_theorem(tid, n_max, r).first_failure
        assert (failure.n, failure.k) == (n, k)
        assert failure.got - failure.expected == F(step, clean[1])


def test_a_passing_cell_solves_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a passing cell solved in the basis")

    monkeypatch.setattr(identities, "_solve_in_basis", refuse)
    for tid in identities.THEOREM_IDS:
        assert verify_theorem(tid, 8, {"t6": 9, "t7": 3}.get(tid, 2)).passed, tid


def without_constant(spec, n_max):
    """The stored numbers of spec through n_max with c_0 = 0, as a store entry."""
    nums, d, _ = families._appell(spec, n_max)
    return (0, *nums[1:]), d


def test_a_member_of_the_wrong_degree_is_refused(monkeypatch):
    # with h_0 = 0 no member H_n is of degree n: refused where the table is the basis or
    # the one expanded, even where a closed form reads the same numbers
    monkeypatch.setitem(families._store, hermite(), without_constant(hermite(), 6))
    for tid in ("t4", "t5"):  # Hermite expanded in the Euler basis
        with pytest.raises(SingularBasis, match="expanded table has c_0 = 0"):
            verify_theorem(tid, 6, 2)
    with pytest.raises(SingularBasis, match="basis table has c_0 = 0"):
        verify_theorem("t1", 6, 2)  # Euler expanded in the Hermite basis


def test_the_basis_is_checked_before_any_row(corrupt_entry, monkeypatch):
    corrupt_entry("t2", 1, 0)
    assert verify_theorem("t2", 6, 1).first_failure.n == 1
    monkeypatch.setitem(families._store, hermite(), without_constant(hermite(), 6))
    with pytest.raises(SingularBasis, match="basis table"):
        verify_theorem("t2", 6, 1)


# Replaces h_3 in the stored Hermite numbers by h_3 + 1, then verifies t4 at n_max = 6,
# r = 2; "warm" verifies the same cell once before the swap.
_SWAP_SCRIPT = """
import sys
from umbra import families, hermite, verify_theorem
if sys.argv[1] == "warm":
    verify_theorem("t4", 6, 2)
nums, d, _ = families._appell(hermite(), 6)
families._store[hermite()] = tuple(x + d if n == 3 else x for n, x in enumerate(nums)), d
report = verify_theorem("t4", 6, 2)
print(report.status, report.first_failure)
"""


def test_fail_report_does_not_depend_on_earlier_cells():
    # each run in a fresh process, so nothing left by other tests can warm either one
    reports = [
        subprocess.run(
            [sys.executable, "-c", _SWAP_SCRIPT, mode], capture_output=True, text=True,
            timeout=120, check=True).stdout
        for mode in ("cold", "warm")]
    assert reports[0].startswith("FAIL "), reports
    assert reports[0] == reports[1]


def test_no_closed_form_reads_the_stored_hermite_table(monkeypatch):
    # each Hermite cell checks its closed form against the stored Hermite table, so no
    # closed form may read that table, or a fault in it could cancel
    cells = [(n, k, r) for r in range(4) for n in range(9) for k in range(n + 1)]
    lam = F(1, 2)
    checks = [
        (t4_coeff, cells, lambda n, k, r: double_sum_oracle(n, k, r, -1)),
        (t5_coeff, cells, lambda n, k, r: hermite_values_oracle(n, k, r, -1)),
        (t6_coeff, [(n, k, 9) for n in range(9) for k in range(n + 1)], stirling_route_oracle),
        (t7_coeff, [(n, k, r) for n, k, r in cells if n >= r],
         lambda n, k, r: (stirling_route_oracle if k < r else t7_upper_oracle)(n, k, r)),
        (lambda *c: t8_coeff(*c, lam), cells, lambda *c: hermite_values_oracle(*c, lam)),
        (lambda *c: remark_coeff(*c, lam), cells, lambda *c: double_sum_oracle(*c, lam)),
    ]
    wants = [[oracle(*c) for c in where] for _, where, oracle in checks]  # the oracles read it
    build = families._build_numbers

    def refuse_hermite(spec, n_max):
        if spec.kind is FamilyKind.HERMITE:
            raise AssertionError("a closed form read the stored Hermite table")
        return build(spec, n_max)

    monkeypatch.setattr(families, "_store", {})  # nothing computed before the patch may answer
    monkeypatch.setattr(families, "_build_numbers", refuse_hermite)
    for (coeff, where, _), want in zip(checks, wants):
        assert [coeff(*c) for c in where] == want


def as_fractions(table):
    rows, d = table
    return [[F(x, d) for x in row] for row in rows]


@pytest.mark.parametrize("tid", ["t4", "t5", "t6", "t7", "t8", "remark"])
def test_row_builders_read_the_hermite_denominator(tid):
    # every Hermite table the catalog hands over has d = 1, so only a table over d > 1
    # shows a builder that drops or misplaces that denominator
    kind, build = catalog_entry(tid)
    lams = (F(1, 2), F(-3)) if kind is FamilyKind.FROBENIUS_EULER else (None,)
    for n_max in range(6):
        coeffs, d = identities._hermite_table(tid, n_max)
        assert d == 1
        tripled = [[3 * c for c in row] for row in coeffs], 3
        for r in range(5):
            for lam in lams:
                spec = FamilySpec(kind, r, lam)
                want, got = (build(spec, n_max, table) for table in ((coeffs, d), tripled))
                assert as_fractions(got) == as_fractions(want), (n_max, r, lam)


def test_a_coefficient_sweep_below_a_built_degree_builds_no_table(monkeypatch):
    built = []

    def wrap(build):
        def counted(spec, n_max, table):
            built.append(n_max)
            return build(spec, n_max, table)
        return counted

    build = wrap_row_builder(monkeypatch, "t6", wrap)
    monkeypatch.setattr(families, "_store", {})
    t6_coeff(30, 0, 31)
    sweep = {(n, k): t6_coeff(n, k, 31) for n in range(30) for k in range(n + 1)}
    assert built == [30]
    for n in (0, 1, 7, 29):  # each a slice equal to a table built to degree n
        rows, d = build(bernoulli(31), n, identities._hermite_table("t6", n))
        assert [sweep[n, k] for k in range(n + 1)] == [F(x, d) for x in rows[n]], n


def test_a_rising_coefficient_sweep_doubles_the_stored_table(monkeypatch):
    built = []

    def wrap(build):
        def counted(spec, n_max, table):
            built.append(n_max)
            return build(spec, n_max, table)
        return counted

    build = wrap_row_builder(monkeypatch, "t6", wrap)
    monkeypatch.setattr(families, "_store", {})
    sweep = {(n, k): t6_coeff(n, k, 31) for n in range(31) for k in range(n + 1)}
    assert built == [0, 2, 6, 14, 30]  # each rebuild holds at least twice the rows
    for n in (0, 1, 7, 30):  # each entry equal to a table built to degree n
        rows, d = build(bernoulli(31), n, identities._hermite_table("t6", n))
        assert [sweep[n, k] for k in range(n + 1)] == [F(x, d) for x in rows[n]], n


def _top_divided_differences(us, values, order):
    """The divided differences of the given order of values over the points us."""
    for j in range(1, order + 1):
        values = [(b - a) / (us[i + j] - us[i])
                  for i, (a, b) in enumerate(zip(values, values[1:]))]
    return values


@pytest.mark.parametrize("r", range(5))
def test_lambda_entries_are_polynomials_in_u_of_the_bounded_degree(r):
    # with u = 1/(1 - lambda), t3 entries and Frobenius-Euler member coefficients have
    # degree <= n in u and t8 / remark entries degree <= r: the bound behind the
    # n_max + r + 1 samples of symbolic mode, so the (D+1)-th divided differences vanish
    for n in range(7):
        us = [F(2 * i + 1, 3) for i in range(n + r + 2)]
        lams = [1 - 1 / u for u in us]
        tables = [(n, [[t3_coeff(n, k, r, lam) for k in range(n + 1)] for lam in lams]),
                  (n, [list(family_poly(frobenius_euler(r, lam), n).coeffs) for lam in lams])]
        tables += [(r, [[coeff(n, k, r, lam) for k in range(n + 1)] for lam in lams])
                   for coeff in (t8_coeff, remark_coeff)]
        for degree, table in tables:
            for k, column in enumerate(zip(*table)):
                assert not any(_top_divided_differences(us, column, degree + 1)), (n, k, degree)
            if r and n >= degree:  # and the bound is reached
                assert any(any(_top_divided_differences(us, column, degree))
                           for column in zip(*table)), (n, degree)


def test_hermite_coefficient_tables_agree_with_the_operator_route():
    explicit, d_explicit = identities._explicit_hermite(40)
    stored, d_stored = families._family_rows(hermite(), 40)
    for m in range(41):
        want = list(hermite_poly_via_operator(m).coeffs)
        assert [F(c, d_explicit) for c in explicit[m]] == want, m
        assert [F(c, d_stored) for c in stored[m]] == want, m


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        identities.IdentityReport("t1", 3, 0, status="FAIL", first_failure=None)
    failure = identities.Mismatch(1, 0, F(1), F(2))
    for status in ("pass", "fail", "Fail", "", None):
        with pytest.raises(ValueError, match="PASS or FAIL"):
            identities.IdentityReport("t1", 3, 0, status=status, first_failure=failure)
        with pytest.raises(ValueError, match="PASS or FAIL"):
            identities.IdentityReport("t1", 3, 0, status=status)


def test_a_cell_builds_the_explicit_hermite_table_once(monkeypatch):
    builds = []

    def counting(n_max):
        builds.append(n_max)
        return explicit_hermite(n_max)

    explicit_hermite = identities._explicit_hermite
    monkeypatch.setattr(identities, "_explicit_hermite", counting)
    report = verify_theorem("remark", 6, 2, symbolic_lambda=True)
    assert report.passed and len(report.lambdas) == 9
    assert builds == [6]
    assert verify_theorem("t4", 5, 1).passed
    assert builds == [6, 5]  # each cell builds its own
