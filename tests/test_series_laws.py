"""Ring laws of the series kernel, its divided-power loops, its closed forms for a
monomial c t, the tables of general Sheffer pairs, and the recombination check on Appell
tables, on random exact inputs."""

from fractions import Fraction as F
from math import comb, factorial, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from umbra import ShefferPair, connection_coeffs, connection_oracle  # noqa: E402
from umbra import ConnectionMatrix, TruncationTooShort, sheffer_poly, sheffer_polys  # noqa: E402
from umbra import NotInvertible, Poly, SingularBasis, operator_apply, pair_functional  # noqa: E402
from umbra import TruncatedSeries as S  # noqa: E402
from umbra.families import FamilyKind, bernoulli, euler, frobenius_euler, hermite  # noqa: E402
from umbra.families import sheffer_pair_of  # noqa: E402
from umbra.series import _binomial_convolve, _binomial_quotient, _divided  # noqa: E402
from umbra.series import _fractions, _pascal, _scale  # noqa: E402
from umbra.umbral import _connection_table, _expand, _first_failing_row  # noqa: E402
from umbra.umbral import _sheffer_table, _triangle  # noqa: E402

from test_series import fraction_reciprocal, horner_compose, lagrange_inverse  # noqa: E402
from test_series import naive_product  # noqa: E402
from test_umbral import fraction_triangle, poly_solve_oracle, walks_expand_no_table  # noqa: E402

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
series = st.lists(rationals, min_size=1, max_size=8).map(S)
scalars = st.integers(-9, 9) | rationals
laws = settings(max_examples=60, deadline=None, database=None)

# wide entries, so the kernel's common denominators run to many digits
wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
wide_tails = st.lists(wide, max_size=7)
wide_series = st.lists(wide, min_size=1, max_size=8).map(S)


@laws
@given(series, series)
def test_subtraction_adds_the_negated_operand(a, b):
    assert a - b == a + (-1) * b
    assert (a - b).trunc_order == min(a.trunc_order, b.trunc_order)


@laws
@given(series)
def test_negation_is_an_involution(a):
    assert -(-a) == a


@laws
@given(series, series | scalars)
def test_reflected_subtraction_is_negated_subtraction(a, c):
    assert c - a == -(a - c)


@laws
@given(wide.filter(bool), wide_tails)
def test_reciprocal_inverts_a_unit(c0, tail):
    a = S([c0] + tail)
    assert a * a.reciprocal() == S.one(a.trunc_order)


@laws
@given(wide_series, wide_series, wide_series)
def test_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@laws
@given(wide_series, wide_series, wide_series)
def test_product_distributes_over_sum(a, b, c):
    assert a * (b + c) == a * b + a * c


@laws
@given(wide_series, wide_tails, st.integers(0, 8))
@example(S([5]), [], 1)  # the zero series at order 0
@example(S([1, 2, 3]), [F(1, 2), F(-3)], 3)  # the zero series at order 2
def test_compose_matches_horner_oracle(outer, tail, zeros):
    # Horner's rule starts at the outer's last nonzero coefficient: the outer series
    # ends in 0..n+1 zeros, every coefficient in the zero series
    n = outer.trunc_order
    zeros = min(zeros, n + 1)
    outer, inner = S(outer.coeffs[: n + 1 - zeros] + (0,) * zeros), S([0] + tail)
    assert outer.compose(inner) == horner_compose(outer, inner)


@laws
@given(wide.filter(bool), wide_tails)
def test_comp_inverse_is_a_two_sided_inverse(c1, tail):
    # f = c1 t + tail, c1 any nonzero rational: every built-in f is t or t/2
    f = S([0, c1] + tail)
    fbar = f.comp_inverse()
    assert f.compose(fbar) == fbar.compose(f) == S.t(f.trunc_order)


@laws
@given(wide_tails | st.lists(rationals, max_size=7), wide_tails | st.lists(rationals, max_size=7))
def test_exp_takes_a_sum_to_a_product(a_tail, b_tail):
    a, b = S([0] + a_tail), S([0] + b_tail)
    assert (a + b).exp() == a.exp() * b.exp()


@st.composite
def adjoint_cases(draw):
    """Series f and g and a polynomial p, wide entries, both series of order >= deg p.

    p is the zero polynomial whenever its drawn coefficients all vanish."""
    p = Poly(draw(st.lists(wide, max_size=12)))
    order = max(p.degree, 0) + draw(st.integers(0, 2))
    f, g = (S(draw(st.lists(wide, min_size=order + 1, max_size=order + 1))) for _ in "fg")
    return f, g, p


@laws
@given(adjoint_cases())
@example((S([F(-3, 7)]), S([F(5)]), Poly()))
def test_adjoint_law_holds_on_wide_inputs(case):
    # <f g | p> = <g | f p>: the pairing against the operator action; the seeded
    # test_adjoint_law_random checks the same law
    f, g, p = case
    assert pair_functional(f * g, p) == pair_functional(g, operator_apply(f, p))


def divided(coeffs):
    """The divided powers k! c_k of a coefficient sequence, as Fractions."""
    return [factorial(k) * c for k, c in enumerate(coeffs)]


@laws
@given(series | wide_series, series | wide_series)
def test_binomial_convolution_is_the_product_on_divided_powers(a, b):
    # both vectors whole, so the longer one is read only through the shorter's degree
    n = min(a.trunc_order, b.trunc_order)
    (na, da), (nb, db) = (_divided(_scale(s.coeffs)) for s in (a, b))
    assert _fractions(_binomial_convolve(na, nb, _pascal(n)), da * db) == divided((a * b).coeffs)


@laws
@given(rationals | wide, st.lists(rationals | wide, max_size=9),
       st.lists(rationals | wide, min_size=10, max_size=10))
@example(F(-1), [], [F(3)])  # the solve runs no step, so only the sign rule makes d > 0
@example(F(-7, 3), [F(0), F(5, 2)], [F(0), F(-1, 6), F(4)])  # a negative non-unit c_0
@example(F(0), [F(1)], [F(1), F(2)])  # no quotient: NotInvertible
def test_route_quotient_is_the_quotient_on_divided_powers(c0, tail, top):
    c = _divided(_scale([c0] + tail))
    n = len(tail)
    a = _divided(_scale(top[: n + 1]))
    one = ([1] + [0] * n, 1)
    if not c0:
        for numerator in (a, one):
            with pytest.raises(NotInvertible):
                _binomial_quotient(numerator, c)
        return
    nums, d = _binomial_quotient(a, c)
    assert d > 0
    # q * c = a on divided powers: the quotient times the divisor gives back the numerator
    assert _fractions(_binomial_convolve(nums, c[0], _pascal(n)), d * c[1]) == _fractions(*a)
    nums, d = _binomial_quotient(one, c)
    assert d > 0
    assert _fractions(nums, d) == divided(S([c0] + tail).reciprocal().coeffs)


def pair_by_powers(spec, n_max):
    """The family's pair with g = base ** r by TruncatedSeries products on ordinary
    coefficients: an oracle that shares no divided-power code with `sheffer_pair_of`."""
    n = max(n_max, 1)
    if spec.kind is FamilyKind.HERMITE:
        return ShefferPair(S([0, 0, F(1, 4)], order=n).exp(), S.t(n) / 2)
    if spec.kind is FamilyKind.BERNOULLI:
        base = S([F(1, factorial(k + 1)) for k in range(n + 1)])
    else:
        lam = F(-1) if spec.kind is FamilyKind.EULER else spec.lam
        base = S([1] + [1 / ((1 - lam) * factorial(k)) for k in range(1, n + 1)])
    return ShefferPair(base ** spec.order_r, S.t(n))


orders = st.integers(0, 5)
family_specs = st.one_of(
    st.just(hermite()), orders.map(bernoulli), orders.map(euler),
    st.builds(frobenius_euler, orders, rationals.filter(lambda v: v != 1)))


@laws
@given(family_specs, st.sampled_from([1, 2, 8, 30]))
@example(frobenius_euler(5, F(-7, 3)), 30)
@example(frobenius_euler(5, F(7, 3)), 30)
@example(frobenius_euler(4, F(1, 3)), 8)
def test_appell_powers_match_series_products(spec, n):
    assert sheffer_pair_of(spec, n) == pair_by_powers(spec, n)


# the kernel's closed forms for a monomial c t, every built-in f, fbar and l(fbar), against
# the general routes' oracles: c negative or not a unit, the vector ending in zeros
monomial_units = wide.filter(bool) | st.sampled_from([F(-1), F(2), F(-3, 7), F(1, 2)])


@laws
@given(wide_series, monomial_units)
@example(S([F(2), F(-1), F(3)]), F(-1))
def test_compose_into_a_monomial_matches_horner_oracle(outer, c):
    inner = S([0, c], order=outer.trunc_order)
    assert outer.compose(inner) == horner_compose(outer, inner)


@laws
@given(monomial_units, st.integers(1, 8))
@example(F(-3, 7), 1)
def test_comp_inverse_of_a_monomial_matches_lagrange_oracle(c, n):
    f = S([0, c], order=n)
    assert f.comp_inverse() == lagrange_inverse(f) == S([0, 1 / c], order=n)


@laws
@given(wide_series, monomial_units, st.integers(0, 2))
@example(S([F(3), F(0), F(-5, 2)]), F(-1), 0)
def test_triangle_of_a_monomial_matches_the_column_sweep(a, c, spare):
    # b = c t, stored through n_max + spare: the table's entries against the columns
    # a (c t)^k by naive Fraction products
    n_max = a.trunc_order
    b = S([0, c], order=n_max + spare)
    rows, d = _triangle(_divided(_scale(a.coeffs)), _divided(_scale(b.coeffs)), n_max)
    assert [_fractions(row, d) for row in rows] == fraction_triangle(a, b, n_max)


def bernoulli_g_by_old_power(r, n):
    """Bernoulli's g as ((e^t - 1)/t)^r on the divided powers 1/(k+1) over their lcm."""
    base, db = _scale([F(1, k + 1) for k in range(n + 1)])
    pascal = _pascal(n)
    g, d = [1] + [0] * n, 1
    for _ in range(r):
        g, d = _binomial_convolve(g, base, pascal), d * db
    return S([F(x, d * factorial(k)) for k, x in enumerate(g)])


@laws
@given(st.sampled_from([0, 1, 4, 7]), st.integers(0, 40))
@example(7, 0)
@example(7, 40)
def test_bernoulli_g_matches_the_power_of_its_old_base(r, n):
    pair = sheffer_pair_of(bernoulli(r), n)
    assert pair.g == bernoulli_g_by_old_power(r, max(n, 1)) and pair.f == S.t(max(n, 1))


@st.composite
def sheffer_pairs(draw, n):
    """A pair (g, f) at order n >= 2, wide entries: g invertible, f delta, a_1 not 1 or 1/2, a_2 != 0.

    Every built-in family's f is t or t/2, so only such pairs reach the general
    `compose` and `comp_inverse` paths.
    """
    g = [draw(wide.filter(bool))] + draw(st.lists(wide, min_size=n, max_size=n))
    a1 = draw(wide.filter(lambda c: c not in (0, 1, F(1, 2))))
    f = [0, a1, draw(wide.filter(bool))] + draw(st.lists(wide, min_size=n - 2, max_size=n - 2))
    return ShefferPair(S(g), S(f))


general_pairs = st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), sheffer_pairs(n), sheffer_pairs(n)))


@laws
@given(general_pairs)
def test_tables_of_general_pairs_match_fraction_oracles(case):
    n, source, target = case
    fbar = source.fbar
    assert horner_compose(source.f, fbar) == S.t(n)
    # 1/g(fbar), h(fbar)/g(fbar) and l(fbar) from Fraction loops that share no kernel code
    over_g = fraction_reciprocal(horner_compose(source.g, fbar))
    a = S(naive_product(horner_compose(target.g, fbar).coeffs, over_g.coeffs, n))
    for (rows, d), want in (
            (_sheffer_table(source, n), fraction_triangle(over_g, fbar, n)),
            (_connection_table(source, target, n),
             fraction_triangle(a, horner_compose(target.f, fbar), n))):
        assert [_fractions(row, d) for row in rows] == want
    assert connection_coeffs(source, target, n) == connection_oracle(source, target, n)


@st.composite
def low_pairs(draw):
    """A pair (g, f) at order 1 or 2, wide entries: g invertible, f delta."""
    n = draw(st.integers(1, 2))
    g = [draw(wide.filter(bool))] + draw(st.lists(wide, min_size=n, max_size=n))
    f = [0, draw(wide.filter(bool))] + draw(st.lists(wide, min_size=n - 1, max_size=n - 1))
    return ShefferPair(S(g), S(f))


@laws
@given(low_pairs(), low_pairs())
def test_sheffer_and_oracle_routes_at_degrees_0_and_1(source, target):
    # each Sheffer table is a connection table into the monomials, t held at order
    # n_max + 1; a pair known below n_max is refused before any table is built
    for n in (0, 1):
        tables = []
        for pair in (source, target):
            fbar = pair.fbar.truncate(n)
            over_g = fraction_reciprocal(horner_compose(pair.g, fbar))
            want = tuple(Poly(row) for row in fraction_triangle(over_g, fbar, n))
            assert sheffer_polys(pair, n) == want and sheffer_poly(pair, n) == want[n], n
            tables.append(want)
        solved = ConnectionMatrix(poly_solve_oracle(*tables))
        assert connection_oracle(source, target, n) == solved == connection_coeffs(
            source, target, n), n
    k = max(source.trunc_order, target.trunc_order) + 1  # both pairs known below k
    for route, args in ((sheffer_polys, (source, k)), (sheffer_poly, (source, k)),
                        (connection_oracle, (source, target, k)),
                        (connection_oracle, (target, source, k))):
        with pytest.raises(TruncationTooShort, match=f"known to degree {args[0].trunc_order} "):
            route(*args)


@laws
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), *[sheffer_pairs(n)] * 3)))
def test_connection_tables_of_general_pairs_compose(case):
    # C(a -> b) C(b -> c) = C(a -> c), through the route's divided powers
    n, a, b, c = case
    ab, bc, ac = (connection_coeffs(x, y, n) for x, y in ((a, b), (b, c), (a, c)))
    for i in range(n + 1):
        for m in range(i + 1):
            product = sum(ab.entry(i, k) * bc.entry(k, m) for k in range(m, i + 1))
            assert product == ac.entry(i, m), (i, m)


def appell_rows(ratio, constants):
    """Entry (n, k) = C(n, k) ratio^k constants[n - k]: the table Appell in ratio * x."""
    return [[comb(n, k) * ratio ** k * constants[n - k] for k in range(n + 1)]
            for n in range(len(constants))]


def integer_rows(rows):
    """Fraction rows as integer rows over their least common denominator, as lists."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def first_unequal_degree(table, basis, expanded, ns):
    """The oracle: the first n in ns where sum_k C_(n,k) R_k != S_n on Fractions, None,
    or SingularBasis when a member of R, or of S in ns, has a zero leading entry."""
    (c, dc), (r, dr), (s, ds) = table, basis, expanded
    if not all(r[k][k] for k in range(ns[-1] + 1)) or not all(s[n][n] for n in ns):
        return SingularBasis
    for n in ns:
        combo = [F(0)] * (n + 1)
        for k in range(n + 1):
            for i in range(k + 1):
                combo[i] += F(c[n][k], dc) * F(r[k][i], dr)
        if combo != [F(x, ds) for x in s[n]]:
            return n
    return None


appell_scales = st.sampled_from([1, -1, 2, -2, 3])
small = st.integers(-9, 9)


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_recombination_check_matches_a_fraction_oracle_on_appell_tables(data):
    # R Appell in s_R x and S in s_S x, each given by its numbers as (nums, d, s), and the
    # exact C between them, which is Appell in (s_S / s_R) y; then one entry of C or one
    # number of R or S moved, or one constant term of C moved with its whole
    # binomial-Toeplitz pattern, which keeps every row recurrence of C
    n_max = data.draw(st.integers(0, 7))
    # a tail of zeros makes a basis of monomials times powers of s_R, where every constant
    # term of sum_k C_(n,k) R_k is C_(n,0) R_00
    tails = st.lists(small, min_size=n_max, max_size=n_max) | st.just([0] * n_max)
    tables = {x: ([data.draw(small.filter(bool))] + data.draw(tails),
                  data.draw(st.integers(1, 6)), data.draw(appell_scales)) for x in "RS"}
    basis, expanded = ([[F(x, d) for x in row] for row in rows]
                       for rows, d in (_expand(tables[x]) for x in "RS"))
    exact = poly_solve_oracle(*([Poly(row) for row in t] for t in (expanded, basis)))
    constants = [row[0] for row in exact]
    rho = F(tables["S"][2], tables["R"][2])
    assert exact == appell_rows(rho, constants)
    tables["C"] = integer_rows(exact)

    def walk():
        with walks_expand_no_table():  # every row is decided by its tie and its constant term
            return _first_failing_row(tables["C"], tables["R"], tables["S"], n_max)

    assert walk() is None
    step = data.draw(st.sampled_from([-2, -1, 1, 2]))
    what = data.draw(st.sampled_from(["C", "R", "S", "constant"]))
    if what == "constant":
        # c_j moves entry (n, n-j) of each row n >= j and keeps every row tied, so only
        # the constant term of row j shows it
        constants[data.draw(st.integers(0, n_max))] += step
        tables["C"] = integer_rows(appell_rows(rho, constants))
    elif what == "C":
        n = data.draw(st.integers(0, n_max))
        tables["C"][0][n][data.draw(st.integers(0, n))] += step
    else:  # R and S stay Appell, so a FAIL is named in O(N^2) too
        tables[what][0][data.draw(st.integers(0, n_max))] += step
    want = first_unequal_degree(
        tables["C"], _expand(tables["R"]), _expand(tables["S"]), range(n_max + 1))
    if want is SingularBasis:  # c_0 of R or S moved to 0
        with pytest.raises(SingularBasis):
            walk()
    else:
        assert walk() == want


@laws
@given(series)
def test_misuse_raises(a):
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(ZeroDivisionError):
        a / F(0)
    for k in (-1, a.trunc_order + 1):
        with pytest.raises(IndexError):
            a.coeff(k)


def test_empty_series_needs_an_order():
    with pytest.raises(ValueError):
        S([])
