"""Truncated formal power series over exact rationals.

A series is stored through a fixed degree N by its ordinary coefficients:
entry k is the coefficient c_k of t^k, and ``trunc_order`` is N.  Binary
operations truncate to the shorter operand, so precision loss is always
visible in the result's order.  Every coefficient a caller sees is a
canonical `fractions.Fraction`; values are immutable and all operations
return new series, which makes them safe to share between threads.

Below the methods the kernel runs on integer vectors (nums, d), numerators over one
denominator, one gcd per step: a method `_scale`s its operands in and builds `Fraction`s
(`_fractions`) only on return.  `_divided` and the `_binomial_*` serve umbral's tables.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import add, mul

from .errors import CompositionOrder, ExpConstantTerm, NotDelta, NotInvertible

__all__ = ["INFINITE", "TruncatedSeries", "as_rational"]

#: Order of the zero series (compares greater than any stored degree).
INFINITE = math.inf

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL_TEXT = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction, or 'p' / 'p/q' string to an exact Fraction.

    Floats and bools are rejected: the kernel is exact, and True is not a number.
    Text is an optional sign, digits and an optional '/digits', with surrounding
    spaces; anything else, a zero denominator included, is a ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise TypeError("cannot use bool as an exact rational")
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if not match:
            raise ValueError(f"not an exact rational: {value!r} (use p or p/q)")
        den = int(match[2] or 1)
        if not den:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(int(match[1]), den)
    raise TypeError(f"cannot use {type(value).__name__} as an exact rational")


def _as_count(value, what: str) -> int:
    """A degree, order, index, exponent or count: an int >= 0, never a bool or float."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


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


# -- the integer core: a Fraction vector is held as integers over one common denominator


def _scale(values) -> tuple[list[int], int]:
    """Integers A and the lcm d of the denominators, with values[i] = A[i] / d."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _int_convolve(a, b, n: int) -> list[int]:
    """c_k = sum_i a_i b_(k-i) for k <= n, skipping zero factors before multiplying."""
    out = [0] * (n + 1)
    terms = [(j, y) for j, y in enumerate(b[: n + 1]) if y]
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in terms:
                if j > n - i:
                    break
                out[i + j] += x * y
    return out


def _reduce(nums: list[int], d: int) -> tuple[list[int], int]:
    """Cancel the common factor of the numerators and the denominator with one gcd."""
    g = math.gcd(d, *nums)
    if g == 1:
        return nums, d
    return [x // g for x in nums], d // g


def _reciprocal(series) -> tuple[list[int], int]:
    """h = 1 / (c / dc) through the degree of the vector c / dc, as (nums, d > 0).

    Solves the triangular system c_0 h_k = dc delta_{k,0} - sum_{i>=1} c_i h_{k-i}.
    """
    c, dc = series
    if not c[0]:
        raise NotInvertible("series has zero constant term")
    # h = nums / d; each step puts one more factor c_0 under every h_j
    nums, d = [dc], c[0]
    for k in range(1, len(c)):
        acc = sum(c[i] * nums[k - i] for i in range(1, k + 1) if c[i])
        nums, d = _reduce([x * c[0] for x in nums] + [-acc], d * c[0])
    return (nums, d) if d > 0 else ([-x for x in nums], -d)


def _compose(outer, inner) -> tuple[list[int], int]:
    """outer(inner(t)) through the lower of the two degrees, on vectors (nums, d > 0).

    Horner's rule over powers of the inner series, which must have zero constant term, from
    the outer's last nonzero coefficient m down, so 1 takes no step and t one: the n-step
    rule's result, as each step above m multiplies a zero vector and its gcd resets d to 1.
    The running sum leaves the outer's denominator out until the end, so each step is one
    convolution, one scaling of the next outer numerator and one gcd.
    """
    (c, dc), (g, dg) = outer, inner
    if g[0]:
        raise CompositionOrder("inner series of a composition must have zero constant term")
    n = min(len(c), len(g)) - 1
    m = next((k for k in range(n, 0, -1) if c[k]), 0)
    # sum_(j >= k) c_j inner^(j - k) = nums / d
    nums, d = [c[m]] + [0] * n, 1
    for k in range(m - 1, -1, -1):
        nums, d = _int_convolve(nums, g, n), d * dg
        nums[0] += c[k] * d
        nums, d = _reduce(nums, d)
    return _reduce(nums, d * dc)


def _pascal(n: int) -> list[list[int]]:
    """Pascal's triangle through row n, by diagonals: _pascal(n)[j][i] = C(i + j, j)."""
    diagonals = [[1] * (n + 1)]
    for j in range(n):  # C(i + j + 1, j + 1) = sum over i' <= i of C(i' + j, j)
        diagonals.append(list(accumulate(diagonals[-1][: n - j])))
    return diagonals


def _divided(series) -> tuple[list[int], int]:
    """The divided powers k! c_k of the vector c / d, with one gcd: (nums, d).  They suit a
    series of exponential type, as every built-in g is, whose ordinary coefficients need a
    denominator near k!; on one of ordinary type (a polynomial, log(1+t)) they grow like k!."""
    c, d = series
    return _reduce([x * f for x, f in zip(c, accumulate(range(1, len(c)), mul, initial=1))], d)


def _binomial_convolve(a, b, pascal) -> list[int]:
    """c_m = sum_j C(m, j) a_(m-j) b_j for m <= n, with pascal = `_pascal(n)`: the product
    on divided powers, c_m = m! [t^m] (A B) where a_k = k! [t^k] A and b_k = k! [t^k] B."""
    out = [0] * len(pascal)
    for j, y in enumerate(b[: len(pascal)]):
        if y:  # diagonal j of the triangle, times a and b_j, added from entry j on
            terms = map(mul, map(mul, pascal[j], a), repeat(y))
            out[j:] = map(add, out[j:], chain(terms, repeat(0)))
    return out


def _binomial_quotient(numerator, series) -> tuple[list[int], int]:
    """q = (a / da) / (c / dc) on divided powers, through the degree of c, as (nums, d > 0):
    c_0 q_k = (dc/da) a_k - sum_(i>=1) C(k, i) c_i q_(k-i), row k of Pascal's from row k-1.
    The solve runs on the integers a and leaves da to the last gcd."""
    (a, da), (c, dc) = numerator, series
    if not c[0]:
        raise NotInvertible("series has zero constant term")
    nums, d, row = [dc * a[0]], c[0], [1]
    for k in range(1, len(c)):
        row = [1, *map(add, row, row[1:]), 1]
        acc = sum(map(mul, map(mul, row[1:], c[1:]), reversed(nums)))
        nums, d = _reduce([x * c[0] for x in nums] + [dc * a[k] * d - acc], d * c[0])
    return _reduce(nums, d * da) if d > 0 else _reduce([-x for x in nums], -d * da)


def _fractions(nums, d: int) -> list[Fraction]:
    """The canonical Fractions nums[i] / d."""
    return [Fraction(x, d) for x in nums]


def _convolve(a, b, n: int) -> list[Fraction]:
    """c_k = sum_i a_i b_(k-i) for k <= n, on integers over the product of two denominators."""
    (na, da), (nb, db) = _scale(a[: n + 1]), _scale(b[: n + 1])
    return _fractions(_int_convolve(na, nb, n), da * db)


def _power(base, k: int, one, times=mul):
    """base**k by repeated squaring under the product ``times``, from the unit ``one``."""
    _as_count(k, "exponent")
    result = one
    while k:
        if k & 1:
            result = times(result, base)
        k >>= 1
        if k:
            base = times(base, base)
    return result


class _Value:
    """Base of the immutable value types: slotted, compared, hashed and printed by field.

    A subclass lists its slots, and in ``_fields`` the ones that make its value, in the
    order its ``__init__`` takes them; that ``__init__`` validates its arguments and
    stores them once with `_set`.  Values of different classes never compare equal.
    """

    __slots__ = ()

    def _set(self, *values):
        """Store the slots, in their order; only ``__init__`` calls this."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # every subclass's __init__ takes its fields positionally, in order
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")


class TruncatedSeries(_Value):
    """A formal power series known through degree ``trunc_order``."""

    __slots__ = _fields = ("_coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [as_rational(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("need at least one coefficient or an explicit order")
            order = len(coeffs) - 1
        else:
            _as_count(order, "truncation order")
        if len(coeffs) < order + 1:
            coeffs.extend([_ZERO] * (order + 1 - len(coeffs)))
        self._set(tuple(coeffs[: order + 1]))

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
        if _as_count(k, "monomial degree") > order:
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
        if _as_count(order, "truncation order") > self.trunc_order:
            raise ValueError(f"cannot truncate order {self.trunc_order} to {order}")
        return self if order == self.trunc_order else TruncatedSeries(self._coeffs[: order + 1])

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
        """Multiplicative inverse h, self*h = 1 through the truncation order; see `_reciprocal`."""
        return TruncatedSeries(_fractions(*_reciprocal(_scale(self._coeffs))))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)) through the lower of the two truncation orders; see `_compose`."""
        n = min(self.trunc_order, inner.trunc_order)
        return TruncatedSeries(_fractions(*_compose(
            _scale(self._coeffs[: n + 1]), _scale(inner._coeffs[: n + 1]))))

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse of a delta series, by Lagrange inversion.

        Returns h with self(h(t)) = h(self(t)) = t through the truncation
        order.  With q = (self/t)^(-1), h_n = (1/n) [t^(n-1)] q^n (Roman,
        The Umbral Calculus, 1984), read off a running power of q.
        """
        if self.order != 1:
            raise NotDelta("compositional inverse needs order exactly 1")
        q, dq = _reciprocal(_scale(self._coeffs[1:]))
        h, power, d = [_ZERO], [1], 1
        for n in range(1, len(self._coeffs)):
            power, d = _reduce(_int_convolve(power, q, len(q) - 1), d * dq)
            h.append(Fraction(power[n - 1], d * n))
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
