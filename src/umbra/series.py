"""Truncated formal power series over exact rationals.

A series is stored through a fixed degree N by its ordinary coefficients:
entry k is the coefficient c_k of t^k, and ``trunc_order`` is N.  Binary
operations truncate to the shorter operand, so precision loss is always
visible in the result's order.  Coefficients are `fractions.Fraction`
throughout; values are immutable and all operations return new series,
which makes them safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositionOrder, ExpConstantTerm, NotDelta, NotInvertible

#: Order of the zero series (compares greater than any stored degree).
INFINITE = math.inf

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction.

    Floats and bools are rejected: the kernel is exact, and True is not a number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise TypeError("cannot use bool as an exact rational")
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact rational")


def _format_terms(coeffs, var: str) -> str:
    """Render c_0 + c_1 var + c_2 var^2 + ... with signs between terms; "0" if all vanish."""
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mag = str(abs(c))
        if i == 0:
            body = mag
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if abs(c) == 1 else f"{mag}*{power}"
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0].lstrip("+ ").replace("- ", "-", 1)
    return " ".join([head] + terms[1:])


def _convolve(a, b, n: int) -> list[Fraction]:
    """c_k = sum_i a_i b_(k-i) for k <= n, skipping zero factors before multiplying."""
    out = [_ZERO] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: n + 1 - i], i):
            if y:
                out[j] += x * y
    return out


def _power(base, k: int, one):
    """base**k by repeated squaring, starting from the unit ``one``."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("powers take nonnegative integer exponents")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """A formal power series known through degree ``trunc_order``."""

    _coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [as_rational(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("need at least one coefficient or an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs.extend([_ZERO] * (order + 1 - len(coeffs)))
        object.__setattr__(self, "_coeffs", tuple(coeffs[: order + 1]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([_ONE], order=order)

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedSeries":
        return cls([as_rational(c)], order=order)

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        """The series t itself."""
        return cls.monomial(1, order)

    @classmethod
    def monomial(cls, k: int, order: int, c=1) -> "TruncatedSeries":
        """c * t^k truncated at ``order`` (k must fit under the truncation)."""
        if not 0 <= k <= order:
            raise ValueError(f"monomial degree {k} outside truncation order {order}")
        return cls([_ZERO] * k + [as_rational(c)], order=order)

    # -- inspection --------------------------------------------------------

    @property
    def trunc_order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, k: int) -> Fraction:
        """Coefficient of t^k; k must lie within the stored range."""
        if not 0 <= k <= self.trunc_order:
            raise IndexError(f"coefficient {k} not stored (truncation order {self.trunc_order})")
        return self._coeffs[k]

    @property
    def order(self):
        """Smallest k with c_k != 0, or INFINITE for the zero series."""
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        return INFINITE

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above ``order`` (0 <= order <= what is stored)."""
        if not 0 <= order <= self.trunc_order:
            raise ValueError(f"cannot truncate order {self.trunc_order} to {order}")
        return TruncatedSeries(self._coeffs[: order + 1])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.trunc_order, other.trunc_order)
            return TruncatedSeries(
                [self._coeffs[k] + other._coeffs[k] for k in range(n + 1)])
        c = as_rational(other)
        return TruncatedSeries((self._coeffs[0] + c,) + self._coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.trunc_order, other.trunc_order)
            return TruncatedSeries(_convolve(self._coeffs, other._coeffs, n))
        c = as_rational(other)
        return TruncatedSeries([c * ck for ck in self._coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = as_rational(scalar)
        if not c:
            raise ZeroDivisionError("division of a series by zero")
        return TruncatedSeries([ck / c for ck in self._coeffs])

    def __pow__(self, k: int) -> "TruncatedSeries":
        """k-th power for nonnegative integer k; f**0 is 1 at the same truncation."""
        return _power(self, k, TruncatedSeries.one(self.trunc_order))

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse h with self*h = 1 through the truncation order.

        Solves the triangular system c_0 h_k = delta_{k,0} - sum_{i>=1} c_i h_{k-i}.
        """
        c = self._coeffs
        if not c[0]:
            raise NotInvertible("series has zero constant term")
        h = [_ONE / c[0]]
        for k in range(1, len(c)):
            acc = _ZERO
            for i in range(1, k + 1):
                if c[i] and h[k - i]:
                    acc += c[i] * h[k - i]
            h.append(-acc / c[0])
        return TruncatedSeries(h)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)) through degree min of the two truncation orders.

        Horner accumulation over powers of the inner series; the inner
        series must have zero constant term so the result stays polynomial
        in each degree.
        """
        if inner._coeffs[0]:
            raise CompositionOrder("inner series of a composition must have zero constant term")
        n = min(self.trunc_order, inner.trunc_order)
        g = inner.truncate(n)
        c = self._coeffs
        result = TruncatedSeries.constant(c[n], n)
        for k in range(n - 1, -1, -1):
            result = result * g + c[k]
        return result

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse of a delta series, by Lagrange inversion.

        Returns h with self(h(t)) = h(self(t)) = t through the truncation
        order.  With q = (self/t)^(-1), h_n = (1/n) [t^(n-1)] q^n (Roman,
        The Umbral Calculus, 1984), read off a running power of q.
        """
        if self.order != 1:
            raise NotDelta("compositional inverse needs order exactly 1")
        q = TruncatedSeries(self._coeffs[1:]).reciprocal()
        h = [_ZERO, q._coeffs[0]]
        power = q
        for n in range(2, len(self._coeffs)):
            power = power * q
            h.append(power._coeffs[n - 1] / n)
        return TruncatedSeries(h)

    def exp(self) -> "TruncatedSeries":
        """exp(self), requiring zero constant term: e' = c' e gives n e_n = sum_k k c_k e_(n-k)."""
        c = self._coeffs
        if c[0]:
            raise ExpConstantTerm("exponential needs a series with zero constant term")
        e = [_ONE]
        for n in range(1, len(c)):
            e.append(sum((k * c[k] * e[n - k] for k in range(1, n + 1) if c[k]), _ZERO) / n)
        return TruncatedSeries(e)

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self._coeffs]})"

    def __str__(self):
        return f"{_format_terms(self._coeffs, 't')} + O(t^{self.trunc_order + 1})"
