"""Constructors for the built-in polynomial families and their Sheffer pairs (g, f).

Hermite (physicists') is (e^{t^2/4}, t/2), generated by e^{2xt - t^2}; order-r
Bernoulli (((e^t - 1)/t)^r, t), order-r Euler (((e^t + 1)/2)^r, t) and order-r
Frobenius-Euler with lam != 1 (((e^t - lam)/(1 - lam))^r, t) are generated by
e^{xt}/g(t).  The order is a nonnegative integer (Hermite takes none); at lam = -1
Frobenius-Euler is Euler exactly.  Each family is Appell, so `_stored` keeps its numbers
(`_build_numbers`, on integer weights with no common denominator), `_appell` reads them,
and the public readers build Polys and Fractions from their rows (`umbral._expand`).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb, factorial

from .errors import LambdaIsOne
from .polynomials import Poly
from .series import TruncatedSeries, _Value, _as_count, _fractions, _reduce, _scale, as_rational
from .series import _binomial_convolve, _pascal, _power
from .umbral import ShefferPair, _expand, operator_apply

__all__ = ["FamilyKind", "FamilySpec", "hermite", "bernoulli", "euler", "frobenius_euler",
           "sheffer_pair_of", "family_poly", "family_polys", "family_number", "family_numbers",
           "hermite_poly_via_operator"]


class FamilyKind(enum.Enum):
    HERMITE = "hermite"
    BERNOULLI = "bernoulli"
    EULER = "euler"
    FROBENIUS_EULER = "frobenius-euler"


def _as_lambda(value) -> Fraction:
    """A Frobenius-Euler parameter: an exact rational other than 1."""
    lam = as_rational(value)
    if lam == 1:
        raise LambdaIsOne("Frobenius-Euler parameter must differ from 1")
    return lam


class FamilySpec(_Value):
    """Which family, at which order, with which parameter."""

    __slots__ = ("kind", "order_r", "lam", "_hash")
    _fields = ("kind", "order_r", "lam")

    def __init__(self, kind: FamilyKind, order_r: int = 0, lam: Fraction | None = None):
        if not isinstance(kind, FamilyKind):
            raise TypeError(f"family kind must be a FamilyKind, got {kind!r}")
        _as_count(order_r, "family order")
        if kind is FamilyKind.FROBENIUS_EULER:
            if lam is None:
                raise ValueError("Frobenius-Euler family needs a lambda parameter")
            lam = _as_lambda(lam)
        elif lam is not None:
            raise ValueError(f"{kind.value} family takes no lambda parameter")
        if kind is FamilyKind.HERMITE and order_r:
            raise ValueError(f"hermite family takes no order, got {order_r}")
        self._set(kind, order_r, lam, hash((kind, order_r, lam)))

    def __hash__(self):  # taken once, in __init__: every family-store read hashes its key
        return self._hash


def hermite() -> FamilySpec:
    return FamilySpec(FamilyKind.HERMITE)


def bernoulli(order_r: int) -> FamilySpec:
    return FamilySpec(FamilyKind.BERNOULLI, order_r)


def euler(order_r: int) -> FamilySpec:
    return FamilySpec(FamilyKind.EULER, order_r)


def frobenius_euler(order_r: int, lam) -> FamilySpec:
    return FamilySpec(FamilyKind.FROBENIUS_EULER, order_r, lam)


def sheffer_pair_of(spec: FamilySpec, n_max: int) -> ShefferPair:
    """The family's Sheffer pair, truncated at n_max (at least 1: a delta
    series cannot be represented below order 1).

    An Appell g is base^r on divided powers.  Bernoulli's base (e^t - 1)/t has divided
    powers 1/(k+1), whose lcm grows with n, so its g is (e^t - 1)^r on the integer divided
    powers 0, 1, 1, ... through degree n + r, shifted down r places: with a_j = j! [t^j]
    (e^t - 1)^r, [t^k] g = [t^(k+r)] (e^t - 1)^r = a_(k+r) / (k+r)!."""
    n = max(_as_count(n_max, "n_max"), 1)
    if spec.kind is FamilyKind.HERMITE:
        g = TruncatedSeries([0, 0, Fraction(1, 4)], order=n).exp()
        return ShefferPair(g, TruncatedSeries.t(n) / 2)
    if spec.kind is FamilyKind.BERNOULLI:  # e^t - 1, shifted down s = r places at the end
        s = spec.order_r
        base, db = [0] + [1] * (n + s), 1
    else:  # (e^t - lam)/(1 - lam): divided powers 1, then 1/(1 - lam); Euler is lam = -1
        lam = Fraction(-1) if spec.kind is FamilyKind.EULER else spec.lam
        s, (base, db) = 0, _scale([1] + [1 / (1 - lam)] * n)
    pascal = _pascal(n + s)  # base^r on divided powers; a product runs over u's nonzero terms
    g, d = _power((base, db), spec.order_r, ([1] + [0] * (n + s), 1), lambda u, v: _reduce(
        _binomial_convolve(v[0], u[0], pascal), u[1] * v[1]))
    g = TruncatedSeries([Fraction(g[k], d * factorial(k)) for k in range(s, n + s + 1)])
    return ShefferPair(g, TruncatedSeries.t(n))


#: Most tables kept, each the longest built for its key; least recently used go first.
MAX_STORED_SPECS = 128
#: spec -> (nums, d), numbers c_m = nums[m] / d; (identity id, spec) -> (rows, d).
_store: dict = {}


def _appell_egf(spec: FamilySpec, n_max: int) -> tuple[list[int], int]:
    """Integers a and a shift s with g_i = i! [t^i] g = a[i] / (a[0] C(i+s, s)) for i <= n_max,
    by finite sums over e^(jt): Bernoulli s = r, a[i] = sum_j C(r, j) (-1)^(r-j) j^(i+r) and
    a[0] = r!; Frobenius-Euler at p/q (Euler at -1) s = 0, a[i] = sum_j C(r, j) (-p)^(r-j)
    q^j j^i, signed so that a[0] = |q-p|^r.  The closed forms' weights are written apart in
    `identities`, so that a wrong sum cannot cancel from a check."""
    r = spec.order_r
    if spec.kind is FamilyKind.BERNOULLI:
        weights = [comb(r, j) * (-1) ** (r - j) for j in range(r + 1)]
        return [sum(c * j ** (i + r) for j, c in enumerate(weights)) for i in range(n_max + 1)], r
    lam = Fraction(-1) if spec.lam is None else spec.lam
    p, q = lam.numerator, lam.denominator
    sign = 1 if q > p else (-1) ** r  # the sign of (q-p)^r, so that a[0] > 0
    weights = [sign * comb(r, j) * (-p) ** (r - j) * q ** j for j in range(r + 1)]
    return [sum(c * j ** i for j, c in enumerate(weights)) for i in range(n_max + 1)], 0


def _build_numbers(spec: FamilySpec, n_max: int) -> tuple[tuple[int, ...], int]:
    """c_0..c_n_max over their least denominator (one gcd per step), by no series code:
    Hermite by h_(n+1) = -2n h_(n-1), H_(n+1) = 2x H_n - 2n H_(n-1) at 0; an Appell family
    (g, t) by sum_i C(n, i) g_i c_(n-i) = [n = 0] (Roman, 1984, ch. 2), which C(n, i) /
    C(i+s, s) = C(n+s, i+s) n! s! / (n+s)! turns into sum_i C(n+s, i+s) a_i c_(n-i) = 0
    for n >= 1 on the integer weights of `_appell_egf`."""
    if spec.kind is FamilyKind.HERMITE:
        nums = [1, 0][: n_max + 1]
        for n in range(1, n_max):
            nums.append(-2 * n * nums[n - 1])
        return tuple(nums), 1
    a, s = _appell_egf(spec, n_max)
    nums, d = [1], 1  # c_m = nums[m] / d
    for n in range(1, n_max + 1):
        top = -sum(comb(n + s, i + s) * a[i] * nums[n - i] for i in range(1, n + 1))
        lead = comb(n + s, s) * a[0]
        nums, d = _reduce([x * lead for x in nums] + [top], d * lead)
    return tuple(nums), d


def _stored(key, n_max: int, build):
    """Entries 0..n_max of the table kept under key, as (entries, d).

    A key is first built by build(n_max), and a request beyond its entries rebuilds it
    to at least twice as many, so a rising sweep to N builds O(log N) tables.  A smaller
    request is a slice, equal to a fresh build since entry n never depends on the degree
    built to (number n reads g, and a closed-form row the Hermite rows, only through
    degree n); it keeps the table's d, which need not be the least for the slice.
    """
    _as_count(n_max, "n_max")  # before the store is touched
    entries, d = _store.pop(key, ((), 1))
    if n_max >= len(entries):
        entries, d = build(max(n_max, 2 * len(entries)))
    _store[key] = entries, d  # reinserted as the most recently used
    if len(_store) > MAX_STORED_SPECS:
        del _store[next(iter(_store))]
    return entries[: n_max + 1], d


def _appell(spec: FamilySpec, n_max: int) -> tuple[tuple[int, ...], int, int]:
    """The family through degree n_max as (nums, d, s): member n is Appell in s x on the
    numbers c_m = nums[m] / d, m <= n_max; s = 2 for Hermite, 1 for every other family."""
    nums, d = _stored(spec, n_max, lambda m: _build_numbers(spec, m))
    return nums, d, 2 if spec.kind is FamilyKind.HERMITE else 1


def _family_rows(spec: FamilySpec, n_max: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Members 0..n_max as integer rows over one denominator: [x^k] S_n = rows[n][k] / d."""
    return _expand(_appell(spec, n_max))


def family_polys(spec: FamilySpec, n_max: int) -> tuple[Poly, ...]:
    """Members 0..n_max of the family, from the stored table."""
    rows, d = _family_rows(spec, n_max)
    return tuple(Poly(_fractions(row, d)) for row in rows)


def family_poly(spec: FamilySpec, n: int) -> Poly:
    """The degree-n member of the family."""
    (row,), d = _expand(_appell(spec, n), [n])
    return Poly(_fractions(row, d))


def family_numbers(spec: FamilySpec, n_max: int) -> tuple[Fraction, ...]:
    """The family's number sequence: constant terms of members 0..n_max."""
    nums, d, _ = _appell(spec, n_max)
    return tuple(Fraction(x, d) for x in nums)


def family_number(spec: FamilySpec, n: int) -> Fraction:
    """The family's n-th number (the degree-n member evaluated at 0)."""
    nums, d, _ = _appell(spec, n)
    return Fraction(nums[n], d)


def hermite_poly_via_operator(n: int) -> Poly:
    """Hermite member by the operator route: e^{-t^2/4} applied to (2x)^n.

    An independent construction that must agree with the Sheffer route.
    """
    op = TruncatedSeries([0, 0, Fraction(-1, 4)], order=n).exp()
    return operator_apply(op, Poly.monomial(n, 2 ** n))
