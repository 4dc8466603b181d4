import copy
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest

from umbra import (
    ConnectionMatrix,
    NotDelta,
    NotInvertible,
    Poly,
    ShefferPair,
    TruncatedSeries,
    TruncationTooShort,
    SingularBasis,
    bernoulli,
    connection_coeffs,
    connection_oracle,
    euler,
    eval_functional,
    falling_factorial,
    family_poly,
    family_polys,
    frobenius_euler,
    hermite,
    operator_apply,
    pair_functional,
    sheffer_pair_of,
    sheffer_poly,
    sheffer_polys,
    stirling1,
    stirling2,
)
import umbra.umbral as umbral
from umbra.families import _appell, _family_rows
from umbra.series import _divided, _fractions, _scale
from umbra.umbral import (
    _connection_table,
    _first_failing_row,
    _require_known,
    _sheffer_table,
    _solve_in_basis,
    _triangle,
)

from test_polynomials import stepwise_derivative, wide_poly
from test_series import (
    KERNEL_ORDERS, assert_canonical, int_table, naive_product, wide_coeffs, wide_unit)

S = TruncatedSeries


@contextmanager
def walks_expand_no_table():
    """Inside the block a table expanded in `umbral`, where the walk reads its tables,
    raises: `_first_failing_row` reads the Appell numbers only."""
    def refuse(*args):
        raise AssertionError("the walk expanded a table")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(umbral, "_expand", refuse)
        yield


def rand_poly(rng, max_degree):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(max_degree + 1)]
    return Poly(coeffs)


BUILTIN_SPECS = [
    hermite(),
    bernoulli(1),
    bernoulli(3),
    bernoulli(4),
    euler(1),
    euler(2),
    euler(4),
    frobenius_euler(1, F(2)),
    frobenius_euler(2, F(1, 2)),
    frobenius_euler(3, F(-1)),
    frobenius_euler(4, F(2)),
]

# Sheffer pairs whose delta series is neither t nor t/2, so the general
# compositional inverse and the triangle builder are exercised in earnest.
N_DELTA = 12


def exp_minus_one(n):
    return S([0] + [F(1, factorial(k)) for k in range(1, n + 1)])


def log_one_plus(n):
    return S([0] + [F((-1) ** (k + 1), k) for k in range(1, n + 1)])


def laguerre_pair(a, n):
    """((1-t)^(-a-1), t/(t-1)), the Laguerre pair of parameter a."""
    g = S([comb(a + k, k) for k in range(n + 1)])
    return ShefferPair(g, S([0] + [-1] * n))


def falling_pair(n):
    return ShefferPair(S.one(n), exp_minus_one(n))


def touchard_pair(n):
    return ShefferPair(S.one(n), log_one_plus(n))


def test_monomial_pairing_is_factorial_delta():
    for n in range(7):
        p = Poly.monomial(n)
        for k in range(7):
            expected = factorial(n) if n == k else 0
            assert pair_functional(S.monomial(k, 8), p) == expected


def test_evaluation_functional():
    p = Poly([-1, 0, 1])  # x^2 - 1
    assert pair_functional(eval_functional(3, p.degree), p) == 8
    assert pair_functional(eval_functional(F(1, 2), 2), p) == F(-3, 4)
    assert eval_functional(3, 0) == S.one(0)
    for order in (0, 2):
        with pytest.raises(TypeError):
            eval_functional(0.5, order)


def test_constant_functional_reads_constant_term():
    p = Poly([F(5, 3), 2, 0, 7])
    assert pair_functional(S.one(3), p) == F(5, 3)


def test_pairing_needs_enough_coefficients():
    with pytest.raises(TruncationTooShort):
        pair_functional(S.one(1), Poly([0, 0, 1]))
    with pytest.raises(TruncationTooShort):
        operator_apply(S.one(1), Poly([0, 0, 1]))


def test_operator_examples():
    assert operator_apply(S.monomial(2, 4), Poly([0, 0, 0, 0, 1])) == Poly([0, 0, 12])
    p = Poly([1, 2, 3])
    assert operator_apply(S.one(2), p) == p
    gauss = S.monomial(2, 3, F(-1, 4)).exp()
    assert operator_apply(gauss, Poly.monomial(1, 2) ** 3) == Poly([0, -12, 0, 8])


def stepwise_pairing(f, p):
    """<f | p> accumulated one nonzero term n! c_n(f) p_n at a time."""
    _require_known(f.trunc_order, p.degree, "pair with a polynomial of")
    acc = F(0)
    for n in range(p.degree + 1):
        cn = f.coeff(n)
        pn = p.coeff(n)
        if cn and pn:
            acc += factorial(n) * cn * pn
    return acc


def stepwise_operator(f, p):
    """sum_k c_k(f) p^(k)(x), one derivative step and one partial-sum Poly per k."""
    _require_known(f.trunc_order, p.degree, "act on a polynomial of")
    result = Poly.zero()
    dk = p
    for k in range(p.degree + 1):
        ck = f.coeff(k)
        if ck:
            result = result + ck * dk
        dk = stepwise_derivative(dk)
        if dk.degree < 0:
            break
    return result


def test_operator_and_pairing_match_stepwise_oracles_on_wide_inputs():
    rng = random.Random(83)
    for degree in range(-1, 21):
        for bound in (10 ** 12, 9):
            p = wide_poly(rng, degree, bound)
            for extra in range(3):  # the series is known 0..2 degrees past the polynomial
                f = S(wide_coeffs(rng, max(degree, 0) + extra, bound))
                where = (degree, bound, extra)
                got = operator_apply(f, p)
                assert got == stepwise_operator(f, p), where
                assert_canonical(got.coeffs, where)
                got = pair_functional(f, p)
                assert got == stepwise_pairing(f, p), where
                assert_canonical([got], where)
            if degree > 0:
                short = S(wide_coeffs(rng, degree - 1, bound))
                for route in (operator_apply, stepwise_operator, pair_functional, stepwise_pairing):
                    with pytest.raises(TruncationTooShort):
                        route(short, p)


def test_operator_matches_family_route():
    gauss = S.monomial(2, 3, F(-1, 4)).exp()
    assert operator_apply(gauss, Poly.monomial(1, 2) ** 3) == family_poly(hermite(), 3)


def test_adjoint_law_random():
    rng = random.Random(29)
    for degree in range(-1, 21):
        for bound in (10 ** 12, 9):
            for _ in range(3):
                p = wide_poly(rng, degree, bound)
                order = max(degree, 0) + rng.randint(0, 2)
                f = S(wide_coeffs(rng, order, bound))
                g = S(wide_coeffs(rng, order, bound))
                assert pair_functional(f * g, p) == pair_functional(g, operator_apply(f, p)), \
                    (degree, bound)


def test_derivative_extraction_law():
    rng = random.Random(31)
    for _ in range(20):
        p = rand_poly(rng, rng.randint(0, 8))
        k = rng.randint(0, 8)
        assert pair_functional(S.monomial(k, 8) if k else S.one(8), p) == \
            p.derivative(k).eval(0)


def test_sheffer_pair_validation():
    with pytest.raises(NotInvertible):
        ShefferPair(S.t(3), S.t(3))
    pair = sheffer_pair_of(hermite(), 6)
    assert pair.fbar.compose(pair.f) == S.t(6)
    assert pair.f.compose(pair.fbar) == S.t(6)


def test_a_pair_refuses_a_non_delta_f_at_construction():
    # the inverse is computed when first read, but f is checked at once
    with pytest.raises(NotDelta):
        ShefferPair(S.one(3), S([0, 0, 1]))
    with pytest.raises(NotDelta):
        ShefferPair(S.one(3), S([1, 1]))


def test_an_inverse_read_late_survives_pickle_and_copy():
    for read_first in (False, True):
        pair = falling_pair(6)
        if read_first:
            assert pair.fbar == log_one_plus(6)
        for twin in (pickle.loads(pickle.dumps(pair)), copy.copy(pair), copy.deepcopy(pair)):
            assert twin == pair and twin.fbar == pair.fbar == log_one_plus(6), read_first


def test_sheffer_poly_identity_pair():
    pair = ShefferPair(S.one(6), S.t(6))
    for n in range(7):
        assert sheffer_poly(pair, n) == Poly.monomial(n)


def test_a_sheffer_table_is_one_connection_table_into_the_monomials(monkeypatch):
    # the kernel assembles every table in `_connection_table`: a Sheffer table is the
    # connection table into x^n ~ (1, t), with t held one order above the table
    targets, assemble = [], umbral._connection_table

    def counted(source, target, n_max):
        targets.append(target)
        return assemble(source, target, n_max)

    monkeypatch.setattr(umbral, "_connection_table", counted)
    n_max = 6
    source, target = laguerre_pair(2, n_max), falling_pair(n_max)
    monomials = ShefferPair(S.one(n_max + 1), S.t(n_max + 1))
    for route, args, want in (
            (sheffer_polys, (source, n_max), [monomials]),
            (sheffer_poly, (source, n_max), [monomials]),
            (connection_oracle, (source, target, n_max), [monomials] * 2),
            (connection_coeffs, (source, target, n_max), [target])):
        targets.clear()
        route(*args)
        assert targets == want, route.__name__


def test_sheffer_poly_euler_and_hermite():
    assert sheffer_poly(sheffer_pair_of(euler(1), 1), 1) == Poly([F(-1, 2), 1])
    assert sheffer_poly(sheffer_pair_of(hermite(), 2), 2) == Poly([-2, 0, 4])


def test_sheffer_poly_needs_truncation():
    with pytest.raises(TruncationTooShort):
        sheffer_poly(sheffer_pair_of(hermite(), 3), 5)
    pair = sheffer_pair_of(hermite(), 3)
    with pytest.raises(ValueError):
        sheffer_polys(pair, -2)
    with pytest.raises(ValueError):
        connection_coeffs(pair, pair, -2)


def test_sheffer_orthogonality_all_builtin_pairs():
    for spec in BUILTIN_SPECS:
        pair = sheffer_pair_of(spec, 8)
        polys = sheffer_polys(pair, 8)
        for k in range(9):
            weight = pair.g * pair.f ** k
            for n in range(9):
                expected = factorial(n) if n == k else 0
                assert pair_functional(weight, polys[n]) == expected, (spec, n, k)


def test_connection_identity_when_source_is_target():
    pair = sheffer_pair_of(bernoulli(2), 6)
    matrix = connection_coeffs(pair, pair, 6)
    for n in range(7):
        for k in range(n + 1):
            assert matrix.entry(n, k) == (1 if n == k else 0)


def test_connection_hermite_to_monomials_gives_hermite_coeffs():
    src = sheffer_pair_of(hermite(), 6)
    tgt = ShefferPair(S.one(6), S.t(6))
    matrix = connection_coeffs(src, tgt, 6)
    for n in range(7):
        h = family_poly(hermite(), n)
        assert list(matrix.rows[n]) == [h.coeff(k) for k in range(n + 1)]


def test_connection_routes_agree():
    rng = random.Random(37)
    for src_spec in BUILTIN_SPECS:
        for tgt_spec in rng.sample(BUILTIN_SPECS, 4):
            src = sheffer_pair_of(src_spec, 8)
            tgt = sheffer_pair_of(tgt_spec, 8)
            assert connection_coeffs(src, tgt, 8) == connection_oracle(src, tgt, 8)


def test_connection_expands_source_in_target_basis():
    src = sheffer_pair_of(euler(2), 6)
    tgt = sheffer_pair_of(hermite(), 6)
    matrix = connection_coeffs(src, tgt, 6)
    targets = sheffer_polys(tgt, 6)
    for n in range(7):
        combo = Poly.zero()
        for k in range(n + 1):
            combo = combo + matrix.entry(n, k) * targets[k]
        assert combo == sheffer_poly(src, n)


def test_connection_transitivity():
    n_max = N_DELTA
    pairs = [sheffer_pair_of(spec, n_max) for spec in BUILTIN_SPECS] + nontrivial_pairs(n_max)
    rng = random.Random(43)
    for trial in range(20):
        a, b, c = rng.sample(pairs, 3)
        ab = connection_coeffs(a, b, n_max)
        bc = connection_coeffs(b, c, n_max)
        ac = connection_coeffs(a, c, n_max)
        for n in range(n_max + 1):
            for m in range(n + 1):
                product = sum(ab.entry(n, k) * bc.entry(k, m) for k in range(m, n + 1))
                assert product == ac.entry(n, m), (trial, n, m)


def test_recombination_verdict_matches_the_solve_on_nontrivial_pairs():
    # the transfer route agrees with the triangular solve on every pair.  Between two
    # built-in (Appell) families, the only tables the check takes, one entry moved by 1/d
    # must be caught at its row: each row is decided by its tie to the row before it
    # (empty at row 0) and its constant term, so row N, which no later row is tied to, and
    # column 0, which only the constant terms read, are always among the places moved
    n_max = N_DELTA
    pairs = [(None, pair) for pair in nontrivial_pairs(n_max)] + [
        (spec, sheffer_pair_of(spec, n_max)) for spec in (hermite(), bernoulli(2), euler(1))]
    rng = random.Random(1302)
    for i, (source_spec, source) in enumerate(pairs):
        for j, (target_spec, target) in enumerate(pairs):
            direct, d = _connection_table(source, target, n_max)
            solved = connection_oracle(source, target, n_max)
            assert ConnectionMatrix(_fractions(row, d) for row in direct) == solved, (i, j)
            if source_spec is None or target_spec is None:
                continue
            tables = _appell(target_spec, n_max), _appell(source_spec, n_max)
            n = rng.randint(0, n_max)
            places = [(n, rng.randint(0, n)), (n_max, n_max), (n_max, 0), (n, 0)]
            assert _first_failing_row((direct, d), *tables, n_max) is None
            for n, k in places:
                rows = [list(row) for row in direct]
                rows[n][k] += rng.choice([-1, 1])
                failing = _first_failing_row((rows, d), *tables, n_max)
                assert failing == n, (i, j, n, k)


def test_a_triangle_without_its_factorials_is_caught_by_the_store_only(
        triangle_without_factorials):
    # both connection routes build their tables with `_triangle`, so this fault
    # cancels from their comparison; the family store runs no series code
    specs = [hermite(), bernoulli(2), euler(1), frobenius_euler(2, "1/3")]
    n_max = 6
    pairs = [sheffer_pair_of(spec, n_max) for spec in specs]
    for i, source in enumerate(pairs):
        for j, target in enumerate(pairs):
            assert connection_coeffs(source, target, n_max) == connection_oracle(
                source, target, n_max), (i, j)
    for spec, pair in zip(specs, pairs):
        assert _family_rows(spec, n_max) != _sheffer_table(pair, n_max), spec


def test_oracle_bernoulli2_row_in_monomials():
    src = sheffer_pair_of(bernoulli(2), 4)
    tgt = ShefferPair(S.one(4), S.t(4))
    matrix = connection_oracle(src, tgt, 4)
    assert list(matrix.rows[1]) == [F(-1), F(1)]  # x - 1


def poly_solve_oracle(polys, basis):
    """Triangular solve by Poly arithmetic: the residual loses c * basis[k] each step."""
    for k, r in enumerate(basis):
        if r.degree != k:
            raise SingularBasis(f"basis member {k} has degree {r.degree}, expected {k}")
    rows = []
    for n, residual in enumerate(polys):
        row = [F(0)] * (n + 1)
        for k in range(n, -1, -1):
            c = residual.coeff(k) / basis[k].coeff(k)
            row[k] = c
            if c:
                residual = residual + (-c) * basis[k]
        rows.append(row)
    return rows


def fraction_triangle(a, b, n_max):
    """Rows n = 0..n_max of (n!/k!) [t^n] (a b^k), the columns a b^k by naive Fraction products."""
    cols = [list(a.coeffs[: n_max + 1])]
    for _ in range(n_max):
        cols.append(naive_product(cols[-1], b.coeffs, n_max))
    return [
        [F(factorial(n), factorial(k)) * cols[k][n] for k in range(n + 1)]
        for n in range(n_max + 1)]


def assert_same_solve(polys, basis, where):
    got = _solve_in_basis(int_table(polys), int_table(basis), range(len(polys)))
    assert got == poly_solve_oracle(polys, basis), where
    assert_canonical([c for row in got for c in row], where)


def nontrivial_pairs(n):
    return [falling_pair(n), touchard_pair(n), laguerre_pair(0, n), laguerre_pair(2, n)]


def table_inputs(pair, n_max):
    """The (a, b) that sheffer_polys hands to the triangle: 1/g(fbar) and fbar."""
    fbar = pair.fbar.truncate(n_max)
    return pair.g.compose(fbar).reciprocal(), fbar


def assert_same_triangle(a, b, n_max, where):
    # the triangle takes a and b as their divided powers
    rows, d = _triangle(*(_divided(_scale(s.coeffs[: n_max + 1])) for s in (a, b)), n_max)
    assert [_fractions(row, d) for row in rows] == fraction_triangle(a, b, n_max), where
    assert d > 0 and gcd(d, *(x for row in rows for x in row)) == 1, where


def test_triangle_matches_fraction_oracle_on_sheffer_pairs():
    n_max = 20
    pairs = [sheffer_pair_of(spec, n_max) for spec in BUILTIN_SPECS] + nontrivial_pairs(n_max)
    for i, pair in enumerate(pairs):
        assert_same_triangle(*table_inputs(pair, n_max), n_max, i)
        other = pairs[(i + 1) % len(pairs)]
        fbar = pair.fbar.truncate(n_max)
        a = other.g.compose(fbar) * pair.g.compose(fbar).reciprocal()
        assert_same_triangle(a, other.f.compose(fbar), n_max, (i, "connection"))


def test_triangle_matches_fraction_oracle_on_wide_inputs():
    rng = random.Random(73)
    for n_max in KERNEL_ORDERS:
        for bound in (10 ** 12, 9):
            a = TruncatedSeries([wide_unit(rng, bound)] + wide_coeffs(rng, n_max, bound)[1:])
            b = TruncatedSeries([0] + wide_coeffs(rng, n_max, bound)[1:])
            assert_same_triangle(a, b, n_max, (n_max, bound))


def test_solve_matches_poly_oracle_on_wide_inputs():
    rng = random.Random(79)
    for n_max in KERNEL_ORDERS:
        basis = [Poly(wide_coeffs(rng, k - 1) + [wide_unit(rng)]) for k in range(n_max + 1)]
        polys = [Poly(wide_coeffs(rng, n)) for n in range(n_max + 1)]
        assert_same_solve(polys, basis, n_max)


def test_solve_matches_poly_oracle_on_nontrivial_tables():
    n_max = N_DELTA
    tables = [sheffer_polys(pair, n_max) for pair in nontrivial_pairs(n_max)]
    tables.append(family_polys(hermite(), n_max))
    for i, polys in enumerate(tables):
        for j, basis in enumerate(tables):
            assert_same_solve(polys, basis, (i, j))


def test_solve_matches_poly_oracle_on_random_bases():
    rng = random.Random(41)
    for trial in range(60):
        n_max = rng.randint(0, 12)
        basis = []
        for k in range(n_max + 1):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else F(0)
                      for _ in range(k)]
            lead = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            basis.append(Poly(coeffs + [lead]))
        # members of lower degree than their slot, the zero polynomial among them
        polys = [rand_poly(rng, rng.randint(-1, n)) if rng.random() < 0.3 else rand_poly(rng, n)
                 for n in range(n_max + 1)]
        assert_same_solve(polys, basis, trial)


def test_solve_matches_poly_oracle_on_builtin_tables():
    n_max = 20
    tables = [family_polys(spec, n_max) for spec in BUILTIN_SPECS]
    for i, polys in enumerate(tables):
        for j, basis in enumerate(tables):
            assert_same_solve(polys, basis, (BUILTIN_SPECS[i], BUILTIN_SPECS[j]))


def test_solver_rejects_malformed_basis():
    monomials = int_table([Poly([1]), Poly([0, 1]), Poly([0, 0, 1])])
    # degree-1 slot holds a constant; then a basis Appell in 0 x: R_11 = 0
    for basis in ([Poly([1]), Poly([3])], [Poly([1]), Poly([5]), Poly([6])]):
        with pytest.raises(SingularBasis):
            _solve_in_basis(monomials, int_table(basis), range(2))
    # the walk's tables are Appell: c_0 = 0 leaves no member of its degree
    powers, no_constant = ((1, 0, 0), 1, 1), ((0, 5, 6), 1, 1)  # x^n, and 5 n x^(n-1) + ...
    cases = ("basis", no_constant, powers), ("expanded", powers, no_constant)
    for n_max in (0, 2):
        for what, basis, expanded in cases:
            with pytest.raises(SingularBasis, match=f"{what} table has c_0 = 0"):
                _first_failing_row(monomials, basis, expanded, n_max)


def test_connection_matrix_shape():
    matrix = ConnectionMatrix([[F(1)], [F(0), F(2)]])
    assert matrix.n_max == 1
    assert matrix.entry(1, 1) == 2
    with pytest.raises(IndexError):
        matrix.entry(1, 2)
    with pytest.raises(ValueError):
        ConnectionMatrix([[F(1), F(2)]])


def test_connection_matrix_takes_exact_rationals_only():
    matrix = ConnectionMatrix([[1], [0, "2/4"]])
    assert matrix.rows == ((F(1),), (F(0), F(1, 2)))
    assert all(type(c) is F for row in matrix.rows for c in row)
    assert type(matrix.entry(0, 0)) is F
    for bad in (1.5, True):
        with pytest.raises(TypeError):
            ConnectionMatrix([[1], [bad, 2]])
    for text in ("x", "1.5", "1/0"):
        with pytest.raises(ValueError):
            ConnectionMatrix([[text]])


def test_recombination_refuses_a_row_of_the_wrong_length():
    monomials = (1, 0, 0), 1, 1
    table = ((1,), (0, 1, 0), (0, 0, 1)), 1  # row 1 holds a third entry
    with pytest.raises(ValueError, match="row 1 has 3 entries, expected 2"):
        _first_failing_row(table, monomials, monomials, 2)


def test_nontrivial_delta_inverses():
    n = N_DELTA
    assert falling_pair(n).fbar == log_one_plus(n)
    assert touchard_pair(n).fbar == exp_minus_one(n)
    for a in (0, 2):
        pair = laguerre_pair(a, n)
        assert pair.fbar == pair.f  # t/(t-1) is its own inverse


def test_nontrivial_delta_sequences():
    n_max = N_DELTA
    falling = sheffer_polys(falling_pair(n_max), n_max)
    touchard = sheffer_polys(touchard_pair(n_max), n_max)
    for n in range(n_max + 1):
        assert falling[n] == falling_factorial(n)
        assert touchard[n] == Poly([stirling2(n, k) for k in range(n + 1)])
    for a in (0, 2):
        laguerre = sheffer_polys(laguerre_pair(a, n_max), n_max)
        for n in range(n_max + 1):
            assert laguerre[n] == Poly(
                [F(factorial(n), factorial(k)) * comb(n + a, n - k) * (-1) ** k
                 for k in range(n + 1)])


def test_nontrivial_delta_connections():
    n_max = N_DELTA
    falling = falling_pair(n_max)
    monomial = ShefferPair(S.one(n_max), S.t(n_max))
    to_monomial = connection_coeffs(falling, monomial, n_max)
    from_monomial = connection_coeffs(monomial, falling, n_max)
    assert to_monomial == connection_oracle(falling, monomial, n_max)
    assert from_monomial == connection_oracle(monomial, falling, n_max)
    for n in range(n_max + 1):
        assert list(to_monomial.rows[n]) == [stirling1(n, k) for k in range(n + 1)]
        assert list(from_monomial.rows[n]) == [stirling2(n, k) for k in range(n + 1)]
