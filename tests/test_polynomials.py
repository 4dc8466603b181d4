import random
import subprocess
import sys
from fractions import Fraction as F
from math import comb, factorial

import pytest

from umbra import (
    Poly,
    TruncatedSeries,
    falling_factorial,
    family_poly,
    hermite,
    stirling1,
    stirling2,
)

from test_series import assert_canonical, wide_coeffs, wide_unit


def set_partition_count(l, n):
    """Brute-force count of partitions of {1..l} into exactly n nonempty blocks.

    Enumerates restricted-growth strings, so it shares nothing with the
    recurrence that stirling2 uses.
    """
    if l == 0:
        return 1 if n == 0 else 0

    count = 0
    stack = [(1, 1)]  # (elements placed, blocks used); element 1 opens block 0
    while stack:
        placed, used = stack.pop()
        if placed == l:
            count += used == n
            continue
        for block in range(min(used + 1, n)):
            stack.append((placed + 1, max(used, block + 1)))
    return count


def wide_poly(rng, degree, bound=10 ** 12):
    """A polynomial of exactly this degree (the zero polynomial at -1), a third of its
    lower coefficients zero."""
    if degree < 0:
        return Poly.zero()
    return Poly(wide_coeffs(rng, degree - 1, bound) + [wide_unit(rng, bound)])


def stepwise_derivative(p, k=1):
    """The k-th derivative by k single steps, one Poly each: x^i goes to i x^(i-1)."""
    for _ in range(k):
        p = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
        if not p.coeffs:
            break
    return p


def test_derivative_matches_stepwise_oracle_on_wide_inputs():
    rng = random.Random(89)
    for degree in range(-1, 21):
        for bound in (10 ** 12, 9):
            p = wide_poly(rng, degree, bound)
            for k in range(degree + 3):
                got = p.derivative(k)
                assert got == stepwise_derivative(p, k), (degree, bound, k)
                assert_canonical(got.coeffs, (degree, bound, k))


def test_derivative_examples():
    assert Poly([0, 0, 0, 1]).derivative() == Poly([0, 0, 3])
    assert Poly([0, 0, 1]).derivative(3) == Poly.zero()
    assert Poly([0, -2, 0, 0, 1]).derivative(2) == Poly([0, 0, 12])


def test_eval_examples():
    assert Poly([-1, 0, 1]).eval(2) == 3
    assert Poly.zero().eval(F(7, 3)) == 0
    h3 = family_poly(hermite(), 3)
    assert h3.eval(1) == -4


def test_zero_polynomial_is_total():
    z = Poly.zero()
    assert z.degree == -1
    assert z.coeffs == ()
    assert z.derivative() == z
    assert z.eval(5) == 0
    assert z + Poly([1]) == Poly([1])
    assert z * Poly([3, 1]) == z


def test_falling_factorial_examples():
    assert falling_factorial(0) == Poly([1])
    assert falling_factorial(2) == Poly([0, -1, 1])
    assert falling_factorial(3) == Poly([0, 2, -3, 1])


def test_stirling1_examples():
    assert stirling1(3, 3) == 1
    assert stirling1(3, 1) == 2
    assert stirling1(3, 2) == -3
    assert stirling1(2, 5) == 0


def test_stirling1_rows_match_falling_factorial():
    for n in range(13):
        p = falling_factorial(n)
        for l in range(n + 1):
            assert stirling1(n, l) == p.coeff(l)


def test_stirling2_examples():
    for n in range(9):
        assert stirling2(n, n) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(2, 3) == 0


def test_stirling2_matches_set_partition_count():
    for l in range(9):
        for n in range(9):
            assert stirling2(l, n) == set_partition_count(l, n), (l, n)


def test_stirling2_matches_series_route():
    # (e^t - 1)^n = n! sum_l S_2(l, n) t^l / l!; truncating at 30 leaves
    # coefficients 0..30 exact, and t6 at order r = N + 1 reaches l = 2N + 1
    expm1 = TruncatedSeries.t(30).exp() - 1
    power = TruncatedSeries.one(30)
    for n in range(31):
        for l in range(31):
            assert stirling2(l, n) == F(factorial(l), factorial(n)) * power.coeff(l), (l, n)
        power = power * expm1


def test_stirling2_deep_rows_match_closed_forms():
    l = 600
    assert stirling2(l, 1) == 1
    assert stirling2(l, 2) == 2 ** (l - 1) - 1
    assert stirling2(l, 3) == (3 ** l - 3 * 2 ** l + 3) // 6
    assert stirling2(l, l - 1) == l * (l - 1) // 2


def test_stirling1_deep_rows_match_closed_forms():
    n = 600
    assert stirling1(n, n) == 1
    assert stirling1(n, n - 1) == -comb(n, 2)
    assert stirling1(n, 1) == (-1) ** (n - 1) * factorial(n - 1)


def test_stirling_closed_forms_at_depth_2000():
    n = 2000
    assert stirling1(n, 1) == (-1) ** (n - 1) * factorial(n - 1)
    assert stirling2(n, 2) == 2 ** (n - 1) - 1
    assert stirling2(n, 3) == (3 ** n - 3 * 2 ** n + 3) // 6


# Memory still allocated after two deep Stirling calls, measured from just after
# the import so that nothing else in the process counts.
_STIRLING_MEMORY_SCRIPT = """
import tracemalloc
import umbra
tracemalloc.start()
umbra.stirling1(600, 3)
umbra.stirling2(600, 3)
print(tracemalloc.get_traced_memory()[0])
"""


def test_stirling_numbers_keep_no_rows():
    held = subprocess.run(
        [sys.executable, "-c", _STIRLING_MEMORY_SCRIPT], capture_output=True, text=True,
        timeout=120, check=True).stdout
    assert int(held) < 2 ** 20, held


def test_stirling_inversion_orthogonality():
    for n in range(11):
        for k in range(11):
            total = sum(stirling1(n, l) * stirling2(l, k) for l in range(n + 1))
            assert total == (1 if n == k else 0)


def test_poly_arithmetic():
    p = Poly([1, 2])
    q = Poly([0, 1, 1])
    assert p * q == Poly([0, 1, 3, 2])
    assert p - p == Poly.zero()
    assert 3 * p == Poly([3, 6])
    assert p ** 2 == Poly([1, 4, 4])
    assert Poly.monomial(2, F(1, 2)).coeff(2) == F(1, 2)
    assert p.coeff(99) == 0


def test_poly_adds_and_subtracts_polys_only():
    # a scalar is not lifted to a constant Poly: Python raises once __add__ / __sub__ decline
    for other in (1, F(1, 2), "1"):
        with pytest.raises(TypeError):
            Poly([1]) + other
        with pytest.raises(TypeError):
            Poly([1]) - other
    assert Poly([1]).__add__(1) is NotImplemented
    assert Poly([1]).__sub__(1) is NotImplemented


def test_poly_trims_trailing_zeros():
    assert Poly([1, 0, 0]).degree == 0
    assert Poly([0, 1, 0]).degree == 1
    with pytest.raises(ValueError):
        Poly([1]).derivative(-1)


def test_str_renders_terms():
    assert str(Poly.zero()) == "0"
    assert str(Poly([0, 1])) == "x"
    assert str(Poly([0, 0, -1])) == "-x^2"
    assert str(Poly([F(1, 6), -1, 1])) == "1/6 - x + x^2"
    assert str(Poly([-2, 0, F(-3, 4)])) == "-2 - 3/4*x^2"
    assert str(Poly([0, -1, 1])) == "-x + x^2"
