"""Ring laws of the series kernel on random exact inputs."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from umbra import TruncatedSeries as S  # noqa: E402

from test_series import horner_compose  # noqa: E402

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
@given(wide_series, wide_tails)
def test_compose_matches_horner_oracle(outer, tail):
    inner = S([0] + tail)
    assert outer.compose(inner) == horner_compose(outer, inner)


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
