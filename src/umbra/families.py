"""Constructors for the built-in polynomial families and their Sheffer pairs.

Each family is the Sheffer sequence of an explicit pair:

* Hermite (physicists'): (e^{t^2/4}, t/2), generated by e^{2xt - t^2};
* order-r Bernoulli: (((e^t - 1)/t)^r, t), generated by (t/(e^t-1))^r e^{xt};
* order-r Euler: (((e^t + 1)/2)^r, t), generated by (2/(e^t+1))^r e^{xt};
* order-r Frobenius-Euler with parameter lam != 1:
  (((e^t - lam)/(1 - lam))^r, t), generated by ((1-lam)/(e^t-lam))^r e^{xt}.

The order parameter is a nonnegative integer (Hermite takes none); at lam = -1
the Frobenius-Euler family coincides with the Euler family exactly.

Each family's members are stored in one form: integer coefficient rows over one
denominator, as the Sheffer triangle gives them.  The verification engine, its
basis solve and the CLI's family tables read those rows; only the public readers
(`family_polys` and the others) build Polys and Fractions from them, on demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import LambdaIsOne
from .polynomials import Poly
from .series import TruncatedSeries, _as_count, _fractions, as_rational
from .umbral import ShefferPair, _sheffer_table, operator_apply


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


@dataclass(frozen=True)
class FamilySpec:
    """Which family, at which order, with which parameter."""

    kind: FamilyKind
    order_r: int = 0
    lam: Fraction | None = None

    def __post_init__(self):
        if not isinstance(self.kind, FamilyKind):
            raise TypeError(f"family kind must be a FamilyKind, got {self.kind!r}")
        _as_count(self.order_r, "family order")
        if self.kind is FamilyKind.FROBENIUS_EULER:
            if self.lam is None:
                raise ValueError("Frobenius-Euler family needs a lambda parameter")
            object.__setattr__(self, "lam", _as_lambda(self.lam))
        elif self.lam is not None:
            raise ValueError(f"{self.kind.value} family takes no lambda parameter")
        if self.kind is FamilyKind.HERMITE and self.order_r:
            raise ValueError(f"hermite family takes no order, got {self.order_r}")


def hermite() -> FamilySpec:
    return FamilySpec(FamilyKind.HERMITE)


def bernoulli(order_r: int) -> FamilySpec:
    return FamilySpec(FamilyKind.BERNOULLI, order_r)


def euler(order_r: int) -> FamilySpec:
    return FamilySpec(FamilyKind.EULER, order_r)


def frobenius_euler(order_r: int, lam) -> FamilySpec:
    return FamilySpec(FamilyKind.FROBENIUS_EULER, order_r, lam)


def _exp_shifted_down(n_max: int) -> TruncatedSeries:
    # (e^t - 1)/t built by index shift: coefficient k is 1/(k+1)!
    return TruncatedSeries([Fraction(1, factorial(k + 1)) for k in range(n_max + 1)])


def _frobenius_base(n_max: int, lam: Fraction) -> TruncatedSeries:
    # (e^t - lam)/(1 - lam)
    scale = 1 / (1 - lam)
    coeffs = [scale / factorial(k) for k in range(n_max + 1)]
    coeffs[0] = Fraction(1)
    return TruncatedSeries(coeffs)


def sheffer_pair_of(spec: FamilySpec, n_max: int) -> ShefferPair:
    """The family's Sheffer pair, truncated at n_max (at least 1: a delta
    series cannot be represented below order 1)."""
    n = max(_as_count(n_max, "n_max"), 1)
    if spec.kind is FamilyKind.HERMITE:
        g = TruncatedSeries([0, 0, Fraction(1, 4)], order=n).exp()
        return ShefferPair(g, TruncatedSeries.t(n) / 2)
    if spec.kind is FamilyKind.BERNOULLI:
        base = _exp_shifted_down(n)
    else:  # Euler is Frobenius-Euler at lam = -1
        base = _frobenius_base(n, Fraction(-1) if spec.kind is FamilyKind.EULER else spec.lam)
    return ShefferPair(base ** spec.order_r, TruncatedSeries.t(n))


#: Most families whose longest member table is kept; least recently used go first.
MAX_STORED_SPECS = 128
#: spec -> (rows, d), members 0..len(rows)-1 as integer rows: [x^k] S_n = rows[n][k] / d.
_store: dict[FamilySpec, tuple[tuple[tuple[int, ...], ...], int]] = {}


def _family_rows(spec: FamilySpec, n_max: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Members 0..n_max of the family as integer coefficient rows over one denominator d.

    A spec is built once at the largest degree asked for so far; a smaller
    request is a slice of that table, equal to a fresh build because S_0..S_n
    read the pair's series only through degree n, and coefficient n of the
    compositional inverse depends on the delta series only through degree n.
    A slice keeps the table's d, which need not be the least for the slice.
    """
    _as_count(n_max, "n_max")  # before the store is touched
    rows, d = _store.pop(spec, ((), 1))
    if n_max >= len(rows):
        rows, d = _sheffer_table(sheffer_pair_of(spec, n_max), n_max)
    _store[spec] = rows, d  # reinserted as the most recently used
    if len(_store) > MAX_STORED_SPECS:
        del _store[next(iter(_store))]
    return rows[: n_max + 1], d


def family_polys(spec: FamilySpec, n_max: int) -> tuple[Poly, ...]:
    """Members 0..n_max of the family, built from its Sheffer pair."""
    rows, d = _family_rows(spec, n_max)
    return tuple(Poly(_fractions(row, d)) for row in rows)


def family_poly(spec: FamilySpec, n: int) -> Poly:
    """The degree-n member of the family."""
    rows, d = _family_rows(spec, n)
    return Poly(_fractions(rows[n], d))


def family_numbers(spec: FamilySpec, n_max: int) -> tuple[Fraction, ...]:
    """The family's number sequence: constant terms of members 0..n_max."""
    rows, d = _family_rows(spec, n_max)
    return tuple(Fraction(row[0], d) for row in rows)


def family_number(spec: FamilySpec, n: int) -> Fraction:
    """The family's n-th number (the degree-n member evaluated at 0)."""
    rows, d = _family_rows(spec, n)
    return Fraction(rows[n][0], d)


def hermite_poly_via_operator(n: int) -> Poly:
    """Hermite member by the operator route: e^{-t^2/4} applied to (2x)^n.

    An independent construction that must agree with the Sheffer route.
    """
    op = TruncatedSeries([0, 0, Fraction(-1, 4)], order=n).exp()
    return operator_apply(op, Poly.monomial(n, 2 ** n))
