"""Dense exact polynomials in x, falling factorials, and Stirling numbers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import _as_count, _convolve, _format_terms, _power, as_rational

_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class Poly:
    """Univariate polynomial over exact rationals, trailing zeros trimmed.

    The zero polynomial is the empty coefficient tuple with degree -1;
    eval and derivative handle it like any other value.
    """

    _coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs=()):
        coeffs = [as_rational(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls([_ZERO] * k + [as_rational(c)])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

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
        """k-th derivative; zero once k exceeds the degree."""
        p = self
        for _ in range(_as_count(k, "derivative order")):
            p = Poly([i * c for i, c in enumerate(p._coeffs)][1:])
            if not p._coeffs:
                break
        return p

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([c + (b[i] if i < len(b) else _ZERO) for i, c in enumerate(a)])

    def __neg__(self):
        return Poly([-c for c in self._coeffs])

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

    def __repr__(self):
        return f"Poly({[str(c) for c in self._coeffs]})"

    def __str__(self):
        return _format_terms(self._coeffs, "x")


def falling_factorial(n: int) -> Poly:
    """(x)_n = x(x-1)...(x-n+1); (x)_0 = 1."""
    result = Poly([1])
    for i in range(_as_count(n, "falling factorial index")):
        result = result * Poly([-i, 1])
    return result


def _triangle_row(rows: list[list[int]], n: int, weight) -> list[int]:
    # t(m, k) = t(m-1, k-1) + weight(m, k) t(m-1, k) with t(0, 0) = 1, grown row by
    # row in a loop: a recursion n deep overflows near n = 500
    while len(rows) <= n:
        m = len(rows)
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] + weight(m, k) * prev[k] for k in range(1, m + 1)])
    return rows[n]


_stirling1_rows = [[1]]
_stirling2_rows = [[1]]


def stirling1(n: int, l: int) -> Fraction:
    """Signed Stirling number of the first kind: [x^l] (x)_n."""
    if _as_count(l, "Stirling index") > _as_count(n, "Stirling index"):
        return _ZERO
    # s(n, l) = s(n-1, l-1) - (n-1) s(n-1, l)
    return Fraction(_triangle_row(_stirling1_rows, n, lambda m, k: 1 - m)[l])


def stirling2(l: int, n: int) -> Fraction:
    """Stirling number of the second kind: partitions of l items into n blocks."""
    if _as_count(n, "Stirling index") > _as_count(l, "Stirling index"):
        return _ZERO
    # S(l, n) = S(l-1, n-1) + n S(l-1, n)
    return Fraction(_triangle_row(_stirling2_rows, l, lambda m, k: k)[n])
