"""Dense exact polynomials in x, falling factorials, and Stirling numbers."""

from __future__ import annotations

from fractions import Fraction
from math import perm

from .series import _Coefficients, _as_count, _convolve, _format_terms, _power, as_rational

__all__ = ["Poly", "falling_factorial", "stirling1", "stirling2"]

_ZERO = Fraction(0)


class Poly(_Coefficients):
    """Univariate polynomial over exact rationals, trailing zeros trimmed.

    The zero polynomial is the empty coefficient tuple with degree -1;
    eval and derivative handle it like any other value.
    """

    __slots__ = _fields = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [as_rational(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self._set(tuple(coeffs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls([_ZERO] * _as_count(k, "degree") + [c])

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i (zero beyond the degree)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return _ZERO

    def eval(self, a) -> Fraction:
        """Exact Horner evaluation at a."""
        a = as_rational(a)
        acc = _ZERO
        for c in reversed(self._coeffs):
            acc = acc * a + c
        return acc

    __call__ = eval

    def derivative(self, k: int = 1) -> "Poly":
        """k-th derivative, [x^i] p^(k) = (i+k)!/i! p_(i+k); zero once k exceeds the degree."""
        k = _as_count(k, "derivative order")
        return Poly([perm(i + k, k) * c for i, c in enumerate(self._coeffs[k:])])

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([c + (b[i] if i < len(b) else _ZERO) for i, c in enumerate(a)])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self._coeffs, other._coeffs
            return Poly(_convolve(a, b, len(a) + len(b) - 2))
        c = as_rational(other)
        return Poly([c * ck for ck in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        return _power(self, k, Poly([1]))

    def __str__(self):
        return _format_terms(self._coeffs, "x")


def falling_factorial(n: int) -> Poly:
    """(x)_n = x(x-1)...(x-n+1); (x)_0 = 1."""
    result = Poly([1])
    for i in range(_as_count(n, "falling factorial index")):
        result = result * Poly([-i, 1])
    return result


def stirling1(n: int, l: int) -> Fraction:
    """Signed Stirling number of the first kind: [x^l] (x)_n."""
    if _as_count(l, "Stirling index") > _as_count(n, "Stirling index"):
        return _ZERO
    # s(m, i) = s(m-1, i-1) - (m-1) s(m-1, i), s(0, 0) = 1, down rows 1..n in one list, right
    # to left in place; entry l of row n reads only columns l-(n-m)..l of row m
    col = [1] + [0] * l
    for m in range(1, n + 1):
        for i in range(min(m, l), max(0, l - n + m - 1), -1):
            col[i] = col[i - 1] + (1 - m) * col[i]
        col[0] = 0
    return Fraction(col[l])


def _stirling2_columns(j_max: int, length: int):
    """Yield c_j[l] = S(j+l, j) for l < length, for j = 0..j_max, in one list updated in place.

    S(j+l, j) is the complete homogeneous sum h_l(1..j), so column j follows from
    column j-1 by c_j[l] = c_(j-1)[l] + j c_j[l-1], starting from c_0 = [1, 0, 0, ...].
    """
    col = [1] + [0] * (length - 1)
    yield col
    for j in range(1, j_max + 1):
        for l in range(1, length):
            col[l] += j * col[l - 1]
        yield col


def stirling2(l: int, n: int) -> Fraction:
    """Stirling number of the second kind: partitions of l items into n blocks."""
    if _as_count(n, "Stirling index") > _as_count(l, "Stirling index"):
        return _ZERO
    *_, col = _stirling2_columns(n, l - n + 1)
    return Fraction(col[l - n])
