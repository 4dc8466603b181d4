"""Dense exact polynomials in x, falling factorials, and Stirling numbers."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .series import as_rational

_ZERO = Fraction(0)


class Poly:
    """Univariate polynomial over exact rationals, trailing zeros trimmed.

    The zero polynomial is the empty coefficient tuple with degree -1;
    eval and derivative handle it like any other value.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [as_rational(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        p = self
        for _ in range(k):
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
            if not self._coeffs or not other._coeffs:
                return Poly()
            out = [_ZERO] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for j, b in enumerate(other._coeffs):
                    if b:
                        out[i + j] += a * b
            return Poly(out)
        c = as_rational(other)
        return Poly([c * ck for ck in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = Poly([1])
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self._coeffs]})"

    def __str__(self):
        terms = []
        for i, c in enumerate(self._coeffs):
            if not c:
                continue
            mag = str(abs(c))
            if i == 0:
                body = mag
            else:
                xi = "x" if i == 1 else f"x^{i}"
                body = xi if abs(c) == 1 else f"{mag}*{xi}"
            terms.append(("- " if c < 0 else "+ ") + body)
        if not terms:
            return "0"
        head = terms[0].lstrip("+ ").replace("- ", "-", 1)
        return " ".join([head] + terms[1:])


def falling_factorial(n: int) -> Poly:
    """(x)_n = x(x-1)...(x-n+1); (x)_0 = 1."""
    if n < 0:
        raise ValueError("falling factorial index must be nonnegative")
    result = Poly([1])
    for i in range(n):
        result = result * Poly([-i, 1])
    return result


@lru_cache(maxsize=None)
def _stirling1_int(n: int, l: int) -> int:
    # signed recurrence s(n, l) = s(n-1, l-1) - (n-1) s(n-1, l)
    if n == 0:
        return 1 if l == 0 else 0
    if l < 1 or l > n:
        return 0
    return _stirling1_int(n - 1, l - 1) - (n - 1) * _stirling1_int(n - 1, l)


def stirling1(n: int, l: int) -> Fraction:
    """Signed Stirling number of the first kind: [x^l] (x)_n."""
    if n < 0 or l < 0:
        raise ValueError("Stirling indices must be nonnegative")
    return Fraction(_stirling1_int(n, l))


# row l holds S(l, 0..l), grown by a loop: recursion would overflow near l = 500
_stirling2_rows = [[1]]


def stirling2(l: int, n: int) -> Fraction:
    """Stirling number of the second kind: partitions of l items into n blocks."""
    if n < 0 or l < 0:
        raise ValueError("Stirling indices must be nonnegative")
    while len(_stirling2_rows) <= l:
        prev = _stirling2_rows[-1] + [0]
        _stirling2_rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, len(prev))])
    return Fraction(_stirling2_rows[l][n]) if n <= l else _ZERO
