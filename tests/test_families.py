from fractions import Fraction as F

import pytest

import umbra
from umbra import (
    FamilyKind,
    FamilySpec,
    LambdaIsOne,
    Poly,
    TruncatedSeries,
    bernoulli,
    connection_coeffs,
    connection_oracle,
    euler,
    eval_functional,
    falling_factorial,
    family_number,
    family_numbers,
    family_poly,
    family_polys,
    frobenius_euler,
    hermite,
    hermite_poly_via_operator,
    lambda_samples,
    sheffer_pair_of,
    sheffer_poly,
    sheffer_polys,
    stirling1,
    stirling2,
    t2_coeff,
    verify_theorem,
)
from umbra import families
from umbra import identities
from umbra.cli import main
from umbra.series import _fractions
from umbra.umbral import _sheffer_table

S = TruncatedSeries


def test_hermite_pair_series():
    pair = sheffer_pair_of(hermite(), 4)
    assert pair.g == S.monomial(2, 4, F(1, 4)).exp()
    assert pair.f == S.t(4) / 2
    assert pair.fbar == S([0, 2], order=4)


def test_bernoulli_order_zero_is_monomial_pair():
    pair = sheffer_pair_of(bernoulli(0), 5)
    assert pair.g == S.one(5)
    assert pair.f == S.t(5)
    for n in range(6):
        assert family_poly(bernoulli(0), n) == Poly.monomial(n)


def test_frobenius_euler_at_minus_one_is_euler():
    for r in (1, 2, 3):
        fe = sheffer_pair_of(frobenius_euler(r, F(-1)), 6)
        eu = sheffer_pair_of(euler(r), 6)
        assert fe.g == eu.g and fe.f == eu.f


def test_lambda_one_is_rejected():
    with pytest.raises(LambdaIsOne):
        frobenius_euler(2, 1)
    with pytest.raises(LambdaIsOne):
        FamilySpec(FamilyKind.FROBENIUS_EULER, 1, F(1))


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(FamilyKind.BERNOULLI, -1)
    with pytest.raises(ValueError):
        FamilySpec(FamilyKind.EULER, 1, F(2))
    with pytest.raises(ValueError):
        FamilySpec(FamilyKind.FROBENIUS_EULER, 1)
    with pytest.raises(ValueError):
        FamilySpec(FamilyKind.HERMITE, 3)  # Hermite has no order; hermite() is order 0
    family_polys(bernoulli(2), 3)  # a stored equal spec must not let a float order through
    for make in (lambda: FamilySpec(FamilyKind.BERNOULLI, 2.0), lambda: bernoulli(True),
                 lambda: euler(F(2)), lambda: frobenius_euler(1.0, 2),
                 lambda: family_polys(bernoulli(2.0), 3), lambda: t2_coeff(3, 1, 2.0),
                 lambda: verify_theorem("t2", 3, True), lambda: verify_theorem("t1", True, 0),
                 lambda: family_poly(hermite(), True), lambda: family_polys(hermite(), 2.0),
                 lambda: FamilySpec("hermite"), lambda: FamilySpec("euler", 1)):
        with pytest.raises(TypeError):
            make()


def test_counts_refuse_bool_float_and_negative():
    # every public entry point that takes a degree, order, index, exponent or
    # count, with x in that one position
    pair = sheffer_pair_of(hermite(), 4)
    calls = {
        "TruncatedSeries(order=x)": lambda x: S([1], order=x),
        "TruncatedSeries.monomial(x, 3)": lambda x: S.monomial(x, 3),
        "TruncatedSeries.monomial(1, x)": lambda x: S.monomial(1, x),
        "TruncatedSeries.truncate(x)": lambda x: S([1, 2, 3]).truncate(x),
        "TruncatedSeries ** x": lambda x: S([1, 1]) ** x,
        "Poly ** x": lambda x: Poly([1, 1]) ** x,
        "Poly.monomial(x)": Poly.monomial,
        "Poly.monomial(x, 5)": lambda x: Poly.monomial(x, 5),
        "Poly.derivative(x)": lambda x: Poly([1, 2, 3]).derivative(x),
        "falling_factorial(x)": falling_factorial,
        "stirling1(x, 0)": lambda x: stirling1(x, 0),
        "stirling1(3, x)": lambda x: stirling1(3, x),
        "stirling2(x, 0)": lambda x: stirling2(x, 0),
        "stirling2(3, x)": lambda x: stirling2(3, x),
        "eval_functional(1, x)": lambda x: eval_functional(1, x),
        "sheffer_polys(pair, x)": lambda x: sheffer_polys(pair, x),
        "sheffer_poly(pair, x)": lambda x: sheffer_poly(pair, x),
        "connection_coeffs(pair, pair, x)": lambda x: connection_coeffs(pair, pair, x),
        "connection_oracle(pair, pair, x)": lambda x: connection_oracle(pair, pair, x),
        "sheffer_pair_of(hermite(), x)": lambda x: sheffer_pair_of(hermite(), x),
        "family_polys(hermite(), x)": lambda x: family_polys(hermite(), x),
        "family_poly(hermite(), x)": lambda x: family_poly(hermite(), x),
        "family_numbers(euler(1), x)": lambda x: family_numbers(euler(1), x),
        "family_number(euler(1), x)": lambda x: family_number(euler(1), x),
        "hermite_poly_via_operator(x)": hermite_poly_via_operator,
        "FamilySpec(BERNOULLI, x)": lambda x: FamilySpec(FamilyKind.BERNOULLI, x),
        "verify_theorem('t1', x, 0)": lambda x: verify_theorem("t1", x, 0),
        "verify_theorem('t1', 2, x)": lambda x: verify_theorem("t1", 2, x),
        "lambda_samples(x)": lambda_samples,
    }
    # each tN_coeff at an in-regime (n, k, r), with x in place of one of the three
    for tid in umbra.THEOREM_IDS:
        nkr = (2, 1, 3) if tid == "t6" else (3, 1, 2)
        lam = (2,) if tid in ("t3", "t8", "remark") else ()
        for i, name in enumerate("nkr"):
            def call(x, coeff=getattr(umbra, f"{tid}_coeff"), nkr=nkr, lam=lam, i=i):
                return coeff(*nkr[:i], x, *nkr[i + 1:], *lam)
            calls[f"{tid}_coeff with {name}=x"] = call
    # the messages show the refusal is the argument check, not a later failure
    for name, call in calls.items():
        for bad in (True, 2.0):
            with pytest.raises(TypeError, match="must be an int"):
                call(bad)
                pytest.fail(f"{name} accepted {bad!r}")
        with pytest.raises(ValueError, match="nonnegative|outside"):
            call(-1)
            pytest.fail(f"{name} accepted -1")


def test_first_hermite_members():
    expected = [
        Poly([1]),
        Poly([0, 2]),
        Poly([-2, 0, 4]),
        Poly([0, -12, 0, 8]),
        Poly([12, 0, -48, 0, 16]),
    ]
    for n, want in enumerate(expected):
        assert family_poly(hermite(), n) == want


def test_family_poly_spot_values():
    assert family_poly(bernoulli(1), 2) == Poly([F(1, 6), -1, 1])
    assert family_poly(euler(1), 1) == Poly([F(-1, 2), 1])
    assert family_poly(bernoulli(2), 1) == Poly([-1, 1])


def test_family_numbers():
    assert [family_number(hermite(), n) for n in range(5)] == [1, 0, -2, 0, 12]
    assert [family_number(bernoulli(1), n) for n in range(3)] == [1, F(-1, 2), F(1, 6)]
    for r in range(5):
        assert family_number(euler(r), 0) == 1
    assert family_numbers(bernoulli(1), 2) == (F(1), F(-1, 2), F(1, 6))


def test_appell_derivative_law():
    specs = [bernoulli(2), euler(3), frobenius_euler(2, F(1, 2))]
    for spec in specs:
        polys = family_polys(spec, 12)
        for n in range(1, 13):
            assert polys[n].derivative() == n * polys[n - 1], (spec, n)


def test_hermite_two_routes_agree():
    for n in range(13):
        assert family_poly(hermite(), n) == hermite_poly_via_operator(n)


def test_frobenius_euler_specializes_to_euler():
    for r in range(5):
        fe = family_polys(frobenius_euler(r, F(-1)), 10)
        eu = family_polys(euler(r), 10)
        assert fe == eu


def test_order_r_kernel_is_rth_power_of_order_one():
    # reciprocal of the r-th power vs the r-th power of the reciprocal
    for spec_fn in (bernoulli, euler, lambda r: frobenius_euler(r, F(2))):
        base = sheffer_pair_of(spec_fn(1), 12).g
        for r in (2, 3, 4):
            g_r = sheffer_pair_of(spec_fn(r), 12).g
            assert g_r.reciprocal() == base.reciprocal() ** r
            assert g_r == base ** r


def test_generating_series_matches_polynomial_rows():
    # (t/(e^t-1))^2 e^{xt} read off by pairing the generating series at x = 3
    spec = bernoulli(2)
    polys = family_polys(spec, 8)
    pair = sheffer_pair_of(spec, 8)
    gen = pair.g.reciprocal() * S.monomial(1, 8, 3).exp()
    from math import factorial

    for n in range(9):
        assert polys[n].eval(3) == factorial(n) * gen.coeff(n)


@pytest.fixture
def table_builds(monkeypatch):
    """Start from an empty family store and count the tables it builds."""
    monkeypatch.setattr(families, "_store", {})
    built = []
    build = families._build_numbers

    def counting(spec, n_max):
        built.append((spec, n_max))
        return build(spec, n_max)

    monkeypatch.setattr(families, "_build_numbers", counting)
    return built


@pytest.mark.parametrize("spec", [
    hermite(), bernoulli(2), euler(3), frobenius_euler(2, F(1, 3)), frobenius_euler(2, -3)])
@pytest.mark.parametrize("degrees, builds", [((8, 3), 1), ((3, 8), 2)])
def test_store_slices_equal_fresh_builds(table_builds, spec, degrees, builds):
    for n in degrees:
        assert family_polys(spec, n) == sheffer_polys(sheffer_pair_of(spec, n), n)
    assert len(table_builds) == builds
    assert len(families._store[spec][0]) == 9  # numbers 0..8 over one denominator


def test_rejected_degree_keeps_the_stored_table(table_builds):
    spec = bernoulli(2)
    table = family_polys(spec, 6)
    with pytest.raises(ValueError):
        family_polys(spec, -1)
    assert family_polys(spec, 6) == table
    assert len(table_builds) == 1


def test_store_builds_each_spec_once(table_builds):
    report = verify_theorem("t3", 6, 1, lambdas=[2, "1/2"])
    assert report.passed
    assert len(table_builds) == 3
    assert {spec for spec, _ in table_builds} == {
        hermite(), frobenius_euler(1, 2), frobenius_euler(1, F(1, 2))}


def test_a_symbolic_grid_inside_the_store_builds_each_table_once(table_builds):
    # t3, t8 and remark at N = 24 read 82 family specs, the Hermite table and 81 lambda
    # samples, inside the store's 128 entries; past them each theorem rebuilds every
    # Frobenius-Euler table in turn (388 builds for 130 specs at N = 40)
    argv = "verify --theorems t3,t8,remark --max-n 24 --orders 0,2,4 --symbolic-lambda"
    assert main(argv.split()) == 0
    specs = [spec for spec, _ in table_builds]
    assert len(specs) == len(set(specs)) == 82 <= families.MAX_STORED_SPECS


def test_store_evicts_least_recently_used(table_builds, monkeypatch):
    monkeypatch.setattr(families, "MAX_STORED_SPECS", 2)
    a, b, c = bernoulli(1), euler(1), hermite()
    first_b = family_polys(b, 5)
    first_a = family_polys(a, 5)
    family_polys(b, 2)  # a slice, which makes a the least recently used
    family_polys(c, 5)
    assert list(families._store) == [b, c]
    assert len(table_builds) == 3
    assert family_polys(a, 5) == first_a == sheffer_polys(sheffer_pair_of(a, 5), 5)
    assert len(table_builds) == 4
    assert list(families._store) == [c, a]
    assert family_polys(b, 5) == first_b
    assert len(table_builds) == 5


@pytest.mark.parametrize("spec", [hermite()] + [  # to order 7, where the weights are widest
    make(r) for make in (bernoulli, euler) for r in range(8)] + [
    frobenius_euler(r, lam) for r in range(5) for lam in (F(1, 3), F(-2, 7), 2, F(-3, 2), 5, -1)])
def test_store_table_is_the_sheffer_table(monkeypatch, spec):
    # the finite sums against the series route, the least denominator included
    monkeypatch.setattr(families, "_store", {})
    for n_max in (0, 1, 5, 12, 40):
        families._store.clear()  # a fresh build, not a slice of a longer table
        assert families._family_rows(spec, n_max) == _sheffer_table(
            sheffer_pair_of(spec, n_max), n_max), n_max


@pytest.mark.parametrize("spec", [
    hermite(), bernoulli(3), euler(2), frobenius_euler(2, F(1, 3))], ids=lambda s: s.kind.value)
def test_the_store_holds_each_family_as_its_numbers(monkeypatch, spec):
    # an entry is (nums, d), O(N) integers, and every table read from it is their
    # Appell expansion
    monkeypatch.setattr(families, "_store", {})
    for n_max in (0, 1, 7, 40):
        families._store.clear()
        polys = family_polys(spec, n_max)
        nums, d = families._store[spec]
        assert len(nums) == n_max + 1 and all(type(x) is int for x in (*nums, d)), n_max
        rows = umbra.umbral._expand(families._appell(spec, n_max))
        assert families._family_rows(spec, n_max) == rows, n_max
        assert family_numbers(spec, n_max) == tuple(poly.coeffs[0] for poly in polys), n_max


def test_stored_hermite_table_is_built_apart_from_the_explicit_route(monkeypatch):
    # every closed form of t4-t8 and remark reads the explicit route, and each of their
    # cells is checked against the stored table, so that each cell checks two routes
    explicit = identities._explicit_hermite(20)

    def refuse(*args):
        raise AssertionError("the store read the explicit Hermite route")

    monkeypatch.setattr(families, "_store", {})
    monkeypatch.setattr(identities, "_explicit_hermite", refuse)
    rows, d = families._family_rows(hermite(), 20)
    assert ([list(row) for row in rows], d) == explicit
    for n in range(21):
        assert Poly(_fractions(rows[n], d)) == hermite_poly_via_operator(n)


def test_the_store_shares_no_moment_code_with_the_closed_forms(monkeypatch):
    # g_3 + 1 in the store's Frobenius-Euler table alone must fail t8; had the closed
    # form's moments come from the same code, the error would cancel and t8 pass
    build = families._appell_egf

    def plus_one(spec, n_max):
        a, s = build(spec, n_max)  # g_i = a[i] / a[0] at s = 0
        if spec.kind is FamilyKind.FROBENIUS_EULER:
            a[3] += a[0]
        return a, s

    monkeypatch.setattr(families, "_store", {})
    monkeypatch.setattr(families, "_appell_egf", plus_one)
    report = verify_theorem("t8", 8, 2, lambdas=[F(1, 3)])
    assert report.status == "FAIL" and report.first_failure.n == 3
