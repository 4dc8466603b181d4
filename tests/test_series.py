import copy
import pickle
import random
from fractions import Fraction as F
from math import factorial, gcd, lcm

import pytest

from umbra import (
    INFINITE,
    CompositionOrder,
    ConnectionMatrix,
    ExpConstantTerm,
    FamilyKind,
    FamilySpec,
    IdentityReport,
    Mismatch,
    NotDelta,
    NotInvertible,
    Poly,
    ShefferPair,
    TruncatedSeries,
    as_rational,
    bernoulli,
    frobenius_euler,
    hermite,
)
import umbra.series as series
from umbra.umbral import _solve_in_basis

S = TruncatedSeries


def rand_series(rng, order, lowest=0):
    """Random exact series with controlled order of the lowest term."""
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    for k in range(lowest):
        coeffs[k] = F(0)
    if lowest <= order and not coeffs[lowest]:
        coeffs[lowest] = F(1)
    return S(coeffs)


def int_table(polys):
    """The polys as an integer table (rows, d): [x^i] polys[n] = rows[n][i] / d, row n
    padded to n + 1 entries, the form the basis solve reads."""
    d = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return tuple(
        tuple(c.numerator * (d // c.denominator) for c in p.coeffs) + (0,) * (n - p.degree)
        for n, p in enumerate(polys)), d


def sparse_coeffs(rng, degree):
    """Random exact coefficients 0..degree, about half of them zero."""
    return [F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else F(0)
            for _ in range(degree + 1)]


def naive_product(a, b, n):
    """Coefficients 0..n of the product of two coefficient lists, pair by pair."""
    out = [F(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += x * y
    return out


def horner_compose(f, inner):
    """f(inner) by Horner's rule on Fraction coefficient lists, one naive product per step."""
    if inner.coeffs[0]:
        raise CompositionOrder("inner series of a composition must have zero constant term")
    n = min(f.trunc_order, inner.trunc_order)
    g, c = inner.coeffs[: n + 1], f.coeffs
    result = [c[n]] + [F(0)] * n
    for k in range(n - 1, -1, -1):
        result = naive_product(result, g, n)
        result[0] += c[k]
    return S(result)


def fraction_reciprocal(f):
    """1/f from c_0 h_k = delta_(k,0) - sum_(i>=1) c_i h_(k-i), one Fraction at a time."""
    c = f.coeffs
    if not c[0]:
        raise NotInvertible("series has zero constant term")
    h = [F(1) / c[0]]
    for k in range(1, len(c)):
        acc = F(0)
        for i in range(1, k + 1):
            if c[i] and h[k - i]:
                acc += c[i] * h[k - i]
        h.append(-acc / c[0])
    return S(h)


def assert_canonical(values, where=None):
    """Every value is a reduced Fraction with a positive denominator."""
    for c in values:
        assert type(c) is F, where
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1, where


def wide_coeffs(rng, degree, bound=10 ** 12):
    """Random coefficients 0..degree with numerators and denominators up to bound, a third zero."""
    return [F(rng.randint(-bound, bound), rng.randint(1, bound)) if rng.random() < 2 / 3 else F(0)
            for _ in range(degree + 1)]


def wide_unit(rng, bound=10 ** 12):
    """A random nonzero rational, negative half the time."""
    return F(rng.choice([-1, 1]) * rng.randint(1, bound), rng.randint(1, bound))


KERNEL_ORDERS = (0, 1, 2, 12, 40)


def lagrange_inverse(f):
    """Independent route to the compositional inverse.

    Coefficient n of the inverse is (1/n) [t^{n-1}] (t/f)^n, with t/f read
    off by shifting f down one degree.
    """
    n_max = f.trunc_order
    shifted = S(f.coeffs[1:])  # f/t, known through degree n_max - 1
    out = [F(0)]
    for n in range(1, n_max + 1):
        power = shifted.truncate(n_max - 1).reciprocal() ** n
        out.append(power.coeff(n - 1) / n)
    return S(out, order=n_max)


def matching_inverse(f):
    """Compositional inverse by degree-by-degree matching.

    Coefficient n of f(h) is a_1 h_n plus terms involving only h_1..h_{n-1},
    so each h_n is read off one composition per degree.
    """
    a = f.coeffs
    n_max = f.trunc_order
    h = [F(0), F(1) / a[1]]
    for n in range(2, n_max + 1):
        partial = S(h, order=n)
        residual = f.truncate(n).compose(partial).coeff(n)
        h.append(-residual / a[1])
    return S(h, order=n_max)


def power_sum_exp(f):
    """exp(f) = sum_j f^j / j!, one series product per term."""
    n = f.trunc_order
    result = S.one(n)
    term = result
    for j in range(1, n + 1):
        term = term * f / j
        result = result + term
    return result


def rand_delta(rng, order):
    """Random delta series whose a_1 is a random nonzero rational."""
    f = rand_series(rng, order, lowest=1).coeffs
    a1 = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return S((F(0), a1) + f[2:])


def test_order_examples():
    assert S([0, 1, 1]).order == 1
    assert S([5]).order == 0
    assert S.zero(4).order == INFINITE
    assert S.zero(4).order > 10 ** 9  # INFINITE dominates every stored degree


def test_add_examples():
    one_plus = S([1, 1])
    one_minus = S([1, -1])
    assert one_plus + one_minus == S([2, 0])
    f = S([3, 0, 7], order=5)
    assert f + S.zero(5) == f
    assert S([0, 1], order=2) + S([0, 0, 1]) == S([0, 1, 1])


def test_add_truncates_to_shorter_operand():
    f = S([1, 2, 3, 4], order=3)
    g = S([1, 1], order=1)
    assert (f + g).trunc_order == 1
    assert (f + g).coeffs == (F(2), F(3))


def test_mul_examples():
    assert S([1, 1], order=2) * S([1, -1], order=2) == S([1, 0, -1])
    f = S([2, 5, 1], order=4)
    assert f * S.one(4) == f
    # hand Cauchy product at truncation 2
    assert S([1, 1, 1]) * S([1, 1], order=2) == S([1, 2, 2])


def test_reciprocal_geometric():
    assert S([1, 1], order=3).reciprocal() == S([1, -1, 1, -1])
    assert S([2]).reciprocal() == S([F(1, 2)])


def test_reciprocal_of_shifted_exponential():
    # (e^t - 1)/t has coefficients 1/(k+1)!
    f = S([F(1, factorial(k + 1)) for k in range(4)])
    h = f.reciprocal()
    assert h == S([1, F(-1, 2), F(1, 12), 0])
    assert f * h == S.one(3)


def test_reciprocal_requires_constant_term():
    with pytest.raises(NotInvertible):
        S([0, 1, 2]).reciprocal()


def test_compose_examples():
    t_sq = S([0, 0, 1], order=2)
    assert t_sq.compose(S([0, 2], order=2)) == S([0, 0, 4])
    f = S([3, 1, 4, 1], order=3)
    assert f.compose(S.t(3)) == f


def test_compose_geometric_with_quadratic():
    # 1/(1-t) composed with t + t^2, against the direct-expansion oracle
    geom = S([1, 1, 1, 1])
    inner = S([0, 1, 1], order=3)
    composed = geom.compose(inner)
    direct = S.zero(3)
    for k, c in enumerate(geom.coeffs):
        direct = direct + c * inner ** k
    assert composed == direct == S([1, 1, 2, 3])


def test_compose_rejects_constant_term():
    with pytest.raises(CompositionOrder):
        S([1, 1]).compose(S([1, 1]))


def test_comp_inverse_examples():
    assert (S.t(4) / 2).comp_inverse() == S([0, 2], order=4)
    assert S.t(4).comp_inverse() == S.t(4)
    f = S([0, 1, 1], order=4)
    assert f.comp_inverse() == S([0, 1, -1, 2, -5])


def test_comp_inverse_round_trips():
    f = S([0, 1, 1], order=4)
    fbar = f.comp_inverse()
    assert fbar.compose(f) == S.t(4)
    assert f.compose(fbar) == S.t(4)


def test_comp_inverse_requires_delta():
    with pytest.raises(NotDelta):
        S([1, 1]).comp_inverse()
    with pytest.raises(NotDelta):
        S([0, 0, 1]).comp_inverse()


def test_comp_inverse_matches_lagrange_oracle():
    rng = random.Random(7)
    for _ in range(6):
        f = rand_series(rng, 10, lowest=1)
        assert f.comp_inverse() == lagrange_inverse(f)


def test_comp_inverse_matches_matching_oracle():
    rng = random.Random(43)
    for n in (1, 2, 5, 12, 20):
        for _ in range(3):
            f = rand_delta(rng, n)
            assert f.comp_inverse() == matching_inverse(f)


def test_exp_matches_power_sum_oracle():
    assert S.zero(0).exp() == power_sum_exp(S.zero(0)) == S.one(0)
    rng = random.Random(47)
    for n in (1, 2, 5, 12, 20):
        for _ in range(3):
            f = rand_series(rng, n, lowest=1)
            assert f.exp() == power_sum_exp(f)


def test_exp_examples():
    assert S.t(3).exp() == S([1, 1, F(1, 2), F(1, 6)])
    assert S.zero(2).exp() == S.one(2)
    assert S.monomial(2, 4, F(1, 4)).exp() == S([1, 0, F(1, 4), 0, F(1, 32)])


def test_exp_rejects_constant_term():
    with pytest.raises(ExpConstantTerm):
        S([1, 1]).exp()


def test_pow_examples():
    assert S([1, 1], order=2) ** 2 == S([1, 2, 1])
    f = S([2, 3, 4])
    assert f ** 0 == S.one(2)
    assert (S.t(3) / 2) ** 3 == S([0, 0, 0, F(1, 8)])
    with pytest.raises(ValueError):
        f ** -1


def test_reciprocal_round_trip_at_16():
    rng = random.Random(11)
    for _ in range(8):
        f = rand_series(rng, 16)
        assert f * f.reciprocal() == S.one(16)


def test_comp_inverse_round_trip_at_16():
    rng = random.Random(13)
    for _ in range(4):
        f = rand_series(rng, 16, lowest=1)
        fbar = f.comp_inverse()
        assert fbar.compose(f) == S.t(16)
        assert f.compose(fbar) == S.t(16)


def test_comp_inverse_round_trip_at_64():
    rng = random.Random(71)
    for _ in range(3):
        f = rand_delta(rng, 64)
        assert f.coeffs[1] != 1
        fbar = f.comp_inverse()
        assert f.compose(fbar) == S.t(64)
        assert fbar.compose(f) == S.t(64)


def test_ring_laws_on_random_inputs():
    rng = random.Random(17)
    for _ in range(6):
        f = rand_series(rng, 12)
        g = rand_series(rng, 12)
        h = rand_series(rng, 12)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_exp_additivity_at_12():
    rng = random.Random(19)
    for _ in range(5):
        f = rand_series(rng, 12, lowest=1)
        g = rand_series(rng, 12, lowest=1)
        assert (f + g).exp() == f.exp() * g.exp()


def test_scalars_stay_canonical():
    rng = random.Random(23)
    f = rand_series(rng, 12)
    g = rand_series(rng, 12, lowest=1)
    wide_f = S([wide_unit(rng)] + wide_coeffs(rng, 12)[1:])
    wide_g = S([0, wide_unit(rng)] + wide_coeffs(rng, 12)[2:])
    for a, b in ((f, g), (wide_f, wide_g)):
        for result in (a * a, a.reciprocal(), a.compose(b), b.comp_inverse(), b.exp()):
            assert_canonical(result.coeffs)
        polys = [Poly(a.coeffs[: n + 1]) for n in range(13)]
        basis = [Poly(wide_coeffs(rng, n - 1) + [wide_unit(rng)]) for n in range(13)]
        solved = _solve_in_basis(int_table(polys), int_table(basis), range(13))
        assert_canonical([c for row in solved for c in row])


def test_products_match_fraction_oracle_on_wide_inputs():
    rng = random.Random(53)
    for n in KERNEL_ORDERS:
        for _ in range(3):
            a, b = wide_coeffs(rng, n), wide_coeffs(rng, n)
            a[-1] = -abs(wide_unit(rng))
            got = (S(a) * S(b)).coeffs
            assert got == tuple(naive_product(a, b, n)), n
            assert_canonical(got, n)
            got = (Poly(a) * Poly(b)).coeffs
            assert got == Poly(naive_product(a, b, 2 * n)).coeffs, n
            assert_canonical(got, n)


def test_reciprocal_matches_fraction_oracle_on_wide_inputs():
    rng = random.Random(59)
    for n in KERNEL_ORDERS:
        for _ in range(3):
            f = S([wide_unit(rng)] + wide_coeffs(rng, n)[1:])
            got = f.reciprocal()
            assert got == fraction_reciprocal(f), n
            assert_canonical(got.coeffs, n)


def test_compose_matches_horner_oracle_on_wide_inputs():
    rng = random.Random(61)
    for n in KERNEL_ORDERS:
        for bound in (10 ** 12, 9):
            outer = S(wide_coeffs(rng, n, bound))
            inner = S([0] + wide_coeffs(rng, n, bound)[1:])
            got = outer.compose(inner)
            assert got == horner_compose(outer, inner), (n, bound)
            assert_canonical(got.coeffs, n)
    with pytest.raises(CompositionOrder):
        horner_compose(S([1, 1]), S([1, 1]))


def test_compose_runs_one_step_per_degree_of_the_outer_series(monkeypatch):
    # Horner's rule starts at the outer's last nonzero coefficient: an outer series of
    # degree m <= n costs m convolutions, none for a constant and one for t
    steps, convolve = [], series._int_convolve

    def counted(a, b, n):
        steps.append(n)
        return convolve(a, b, n)

    monkeypatch.setattr(series, "_int_convolve", counted)
    rng = random.Random(67)
    for n in (0, 1, 2, 12):
        inner = S([0] + wide_coeffs(rng, n)[1:])
        outers = [(S.zero(n), 0), (S.one(n), 0)] + ([(S.t(n), 1)] if n else []) + [
            (S(wide_coeffs(rng, m - 1) + [wide_unit(rng)], order=n), m) for m in range(n + 1)]
        for outer, m in outers:
            steps.clear()
            assert outer.compose(inner) == horner_compose(outer, inner), (n, m)
            assert steps == [n] * m, (n, m)


def test_comp_inverse_matches_oracle_on_wide_inputs():
    rng = random.Random(67)
    # 12-digit entries stop at N = 12: the Fraction oracle needs seconds for a dense N = 40 inverse
    cases = [(n, 10 ** 12) for n in (1, 2, 12)] + [(n, 9) for n in KERNEL_ORDERS[1:]]
    for n, bound in cases:
        f = S([0, wide_unit(rng, bound)] + wide_coeffs(rng, n, bound)[2:])
        got = f.comp_inverse()
        assert got == lagrange_inverse(f), (n, bound)
        assert_canonical(got.coeffs, n)


def test_truncation_bookkeeping():
    f = S([1, 2, 3], order=5)
    assert f.trunc_order == 5
    assert len(f.coeffs) == 6
    assert f.truncate(2).coeffs == (F(1), F(2), F(3))
    with pytest.raises(ValueError):
        f.truncate(9)
    with pytest.raises(ValueError):
        f.truncate(-1)
    with pytest.raises(ValueError):
        S([1, 2, 3, 4]).truncate(-2)
    assert (f * S.one(3)).trunc_order == 3
    assert f.compose(S.t(4)).trunc_order == 4


def test_values_are_immutable():
    f = S([1, 2])
    with pytest.raises(AttributeError):
        f._coeffs = ()
    assert isinstance(f.coeffs, tuple)
    pair = ShefferPair(S.one(2), S.t(2))
    report = IdentityReport("t1", 3, 0)
    for value, attr in ((f, "_coeffs"), (Poly([1, 2]), "_coeffs"), (pair, "g"), (pair, "f"),
                        (pair, "fbar"), (ConnectionMatrix([[1]]), "rows"),
                        (hermite(), "kind"), (bernoulli(2), "order_r"),
                        (frobenius_euler(1, 2), "lam"), (Mismatch(1, 0, F(1), F(2)), "got"),
                        (Mismatch(1, 0, F(1), F(2)), "lam"), (report, "status"),
                        (report, "first_failure")):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)


def test_value_reprs():
    assert repr(S([1, F(1, 2)], order=2)) == "TruncatedSeries(['1', '1/2', '0'])"
    assert repr(Poly([0, F(-2, 3)])) == "Poly(['0', '-2/3'])"
    assert repr(ShefferPair(S.one(1), S.t(2))) == \
        "ShefferPair(g=TruncatedSeries(['1', '0']), f=TruncatedSeries(['0', '1']))"
    assert repr(ConnectionMatrix([[1], [0, 2]])) == "ConnectionMatrix(n_max=1)"
    assert repr(hermite()) == \
        "FamilySpec(kind=<FamilyKind.HERMITE: 'hermite'>, order_r=0, lam=None)"
    assert repr(frobenius_euler(2, "1/2")) == (
        "FamilySpec(kind=<FamilyKind.FROBENIUS_EULER: 'frobenius-euler'>, order_r=2, "
        "lam=Fraction(1, 2))")
    failure = Mismatch(3, 2, F(-1, 2), F(5), F(2))
    assert repr(failure) == \
        "Mismatch(n=3, k=2, expected=Fraction(-1, 2), got=Fraction(5, 1), lam=Fraction(2, 1))"
    assert repr(IdentityReport("t1", 3, 0)) == (
        "IdentityReport(theorem_id='t1', n_max=3, order_r=0, lambdas=(), status='PASS', "
        "first_failure=None)")
    assert repr(IdentityReport("t3", 3, 1, (F(2),), "FAIL", failure)) == (
        "IdentityReport(theorem_id='t3', n_max=3, order_r=1, lambdas=(Fraction(2, 1),), "
        f"status='FAIL', first_failure={failure!r})")


def test_equal_values_hash_equal():
    failure = Mismatch(1, 0, F(1), F(2))
    pairs = [
        (S([1, 2, 0]), S([1, 2], order=2)),
        (Poly([1, 2, 0]), Poly([F(2, 2), 2])),
        (ShefferPair(S.one(5), S.t(3)), ShefferPair(S.one(3), S.t(4))),
        (ConnectionMatrix([[1], [0, 2]]), ConnectionMatrix(((F(1),), (F(0), F(2))))),
        (frobenius_euler(2, "1/2"), FamilySpec(FamilyKind.FROBENIUS_EULER, 2, F(2, 4))),
        (hermite(), FamilySpec(FamilyKind.HERMITE)),
        (failure, Mismatch(1, 0, 1, F(4, 2), None)),
        (IdentityReport("t1", 3, 0, status="FAIL", first_failure=failure),
         IdentityReport("t1", 3, 0, (), "FAIL", Mismatch(1, 0, F(1), F(2)))),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)
    assert frobenius_euler(2, 2) != frobenius_euler(2, 3) != frobenius_euler(1, 3)
    assert Mismatch(1, 0, F(1), F(2)) != Mismatch(1, 0, F(1), F(2), F(2))
    assert IdentityReport("t1", 3, 0) != IdentityReport("t1", 3, 1)


def test_values_of_different_types_differ():
    assert Poly([1, 2]) != S([1, 2])
    assert S([1, 2]) != Poly([1, 2])
    assert S([1]) != F(1)
    assert ConnectionMatrix([[1]]) != ((F(1),),)
    values = {hermite(): (FamilyKind.HERMITE, 0, None),
              Mismatch(1, 0, F(1), F(2)): (1, 0, F(1), F(2), None),
              IdentityReport("t1", 3, 0): ("t1", 3, 0, (), "PASS", None)}
    for value, fields in values.items():
        assert value != fields and fields != value
        assert all(other != value for other in values if other is not value)


def test_value_fields_keep_their_order_and_defaults():
    spec = FamilySpec(FamilyKind.BERNOULLI)
    assert (spec.kind, spec.order_r, spec.lam) == (FamilyKind.BERNOULLI, 0, None)
    spec = FamilySpec(FamilyKind.FROBENIUS_EULER, 3, "-1/2")
    assert (spec.kind, spec.order_r, spec.lam) == (FamilyKind.FROBENIUS_EULER, 3, F(-1, 2))
    failure = Mismatch(4, 2, F(1, 3), F(2, 3))
    assert (failure.n, failure.k, failure.expected, failure.got, failure.lam) == \
        (4, 2, F(1, 3), F(2, 3), None)
    assert Mismatch(4, 2, F(1, 3), F(2, 3), F(5)).lam == F(5)
    report = IdentityReport("t8", 6, 2)
    assert (report.theorem_id, report.n_max, report.order_r, report.lambdas, report.status,
            report.first_failure) == ("t8", 6, 2, (), "PASS", None)
    assert report.passed
    report = IdentityReport("t8", 6, 2, (F(2),), "FAIL", failure)
    assert (report.lambdas, report.status, report.first_failure) == ((F(2),), "FAIL", failure)
    assert not report.passed


def test_values_survive_pickle_and_copy():
    values = [S([1, F(1, 2)], order=3), Poly([0, F(-2, 3)]), ShefferPair(S.one(3), S.t(3) / 2),
              ConnectionMatrix([[1], [0, 2]]), frobenius_euler(2, "1/2"), hermite(),
              Mismatch(1, 0, F(1), F(2), F(3)),
              IdentityReport("t3", 3, 1, (F(3),), "FAIL", Mismatch(1, 0, F(1), F(2), F(3)))]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    pair = pickle.loads(pickle.dumps(values[2]))
    assert pair.fbar == S([0, 2], order=3)


def test_sheffer_pair_equality_reads_g_and_f_only():
    pair = ShefferPair(S.one(3), S.t(3) / 2)
    assert pair == ShefferPair(S([1, 0, 0, 0, 7]), S.t(3) / 2)
    assert pair == ShefferPair(S.one(3), S([0, F(1, 2), 0, 0, 5]))
    assert pair != ShefferPair(S([1, 1, 0, 0]), S.t(3) / 2)
    assert pair != ShefferPair(S.one(3), S.t(3))
    assert pair != ShefferPair(S.one(2), S.t(2) / 2)
    assert pair.trunc_order == 3
    assert pair.fbar == S([0, 2], order=3)


def test_constant_series():
    c = S.constant("6/4", 3)
    assert c.coeffs == (F(3, 2), 0, 0, 0) and c.trunc_order == 3
    assert c == S.one(3) * F(3, 2)
    assert_canonical(S.constant(-2, 0).coeffs)
    for bad in (1.5, True):
        with pytest.raises(TypeError):
            S.constant(bad, 2)
    with pytest.raises(ValueError):
        S.constant("1/0", 2)


def test_connection_matrix_stores_tuples():
    matrix = ConnectionMatrix([[F(1)], [F(0), F(2)]])
    assert matrix.rows == ((F(1),), (F(0), F(2)))
    assert all(isinstance(row, tuple) for row in matrix.rows)
    assert isinstance(matrix.rows, tuple)
    assert ConnectionMatrix(iter([iter([1])])).rows == ((1,),)


def test_products_match_naive_convolution_on_sparse_inputs():
    rng = random.Random(37)
    for _ in range(60):
        a = sparse_coeffs(rng, rng.randint(0, 12))
        b = sparse_coeffs(rng, rng.randint(0, 12))
        n = min(len(a), len(b)) - 1
        assert (S(a) * S(b)).coeffs == tuple(naive_product(a, b, n))
        assert (Poly(a) * Poly(b)).coeffs == Poly(naive_product(a, b, len(a) + len(b) - 2)).coeffs
    assert Poly() * Poly([1, 2]) == Poly([1, 2]) * Poly() == Poly.zero()


def test_powers_match_repeated_products():
    rng = random.Random(41)
    for _ in range(12):
        f = S(sparse_coeffs(rng, 8))
        p = Poly(sparse_coeffs(rng, rng.randint(0, 4)))
        f_k, p_k = S.one(8), Poly([1])
        for k in range(7):
            assert f ** k == f_k
            assert p ** k == p_k
            f_k, p_k = f_k * f, p_k * p
    with pytest.raises(ValueError):
        Poly([1, 1]) ** -1


def test_as_rational_accepts_exact_scalars_only():
    assert as_rational(3) == F(3)
    assert as_rational("-2/6") == F(-1, 3)
    assert as_rational(" +3/4 ") == F(3, 4)
    assert as_rational(F(1, 2)) == F(1, 2)
    for bad in (True, False, 0.5):
        with pytest.raises(TypeError):
            as_rational(bad)
    # text is an optional sign, digits and an optional /digits, nothing else
    for bad in ("1.5", "1_000", "1e3", "3/0", "1/-2", "- 1", "1/2/3", "x", ""):
        with pytest.raises(ValueError):
            as_rational(bad)
    with pytest.raises(ValueError):
        frobenius_euler(1, "3/0")
    with pytest.raises(ValueError):
        Poly([1]).eval("1/0")
    with pytest.raises(TypeError):
        S([1, True])


def test_str_renders_terms_and_truncation():
    assert str(S([0, 0, 0, 0])) == "0 + O(t^4)"
    assert str(S([0, 1])) == "t + O(t^2)"
    assert str(S([0, 0, -1], order=3)) == "-t^2 + O(t^4)"
    assert str(S([F(1, 6), -1, 1])) == "1/6 - t + t^2 + O(t^3)"
    assert str(S([-1, F(2, 3)])) == "-1 + 2/3*t + O(t^2)"
    assert str(S([1, 0, 0], order=5)) == "1 + O(t^6)"
