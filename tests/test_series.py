import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from umbra import (
    INFINITE,
    CompositionOrder,
    ExpConstantTerm,
    NotDelta,
    NotInvertible,
    TruncatedSeries,
    as_rational,
)

S = TruncatedSeries


def rand_series(rng, order, lowest=0):
    """Random exact series with controlled order of the lowest term."""
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    for k in range(lowest):
        coeffs[k] = F(0)
    if lowest <= order and not coeffs[lowest]:
        coeffs[lowest] = F(1)
    return S(coeffs)


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
    for result in (f * f, f.reciprocal(), f.compose(g), g.comp_inverse(), g.exp()):
        for c in result.coeffs:
            assert c.denominator > 0
            assert gcd(abs(c.numerator), c.denominator) == 1


def test_truncation_bookkeeping():
    f = S([1, 2, 3], order=5)
    assert f.trunc_order == 5
    assert len(f.coeffs) == 6
    assert f.truncate(2).coeffs == (F(1), F(2), F(3))
    with pytest.raises(ValueError):
        f.truncate(9)
    assert (f * S.one(3)).trunc_order == 3
    assert f.compose(S.t(4)).trunc_order == 4


def test_values_are_immutable():
    f = S([1, 2])
    with pytest.raises(AttributeError):
        f._coeffs = ()
    assert isinstance(f.coeffs, tuple)


def test_as_rational_accepts_exact_scalars_only():
    assert as_rational(3) == F(3)
    assert as_rational("-2/6") == F(-1, 3)
    assert as_rational(F(1, 2)) == F(1, 2)
    for bad in (True, False, 0.5):
        with pytest.raises(TypeError):
            as_rational(bad)
    with pytest.raises(TypeError):
        S([1, True])


def test_str_renders_terms_and_truncation():
    assert str(S([0, 0, 0, 0])) == "0 + O(t^4)"
    assert str(S([0, 1])) == "t + O(t^2)"
    assert str(S([0, 0, -1], order=3)) == "-t^2 + O(t^4)"
    assert str(S([F(1, 6), -1, 1])) == "1/6 - t + t^2 + O(t^3)"
    assert str(S([-1, F(2, 3)])) == "-1 + 2/3*t + O(t^2)"
    assert str(S([1, 0, 0], order=5)) == "1 + O(t^6)"
