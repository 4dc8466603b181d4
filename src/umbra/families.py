"""Constructors for the built-in polynomial families and their Sheffer pairs.

Each family is the Sheffer sequence of an explicit pair:

* Hermite (physicists'): (e^{t^2/4}, t/2), generated by e^{2xt - t^2};
* order-r Bernoulli: (((e^t - 1)/t)^r, t), generated by (t/(e^t-1))^r e^{xt};
* order-r Euler: (((e^t + 1)/2)^r, t), generated by (2/(e^t+1))^r e^{xt};
* order-r Frobenius-Euler with parameter lam != 1:
  (((e^t - lam)/(1 - lam))^r, t), generated by ((1-lam)/(e^t-lam))^r e^{xt}.

The order parameter is a nonnegative integer; at lam = -1 the
Frobenius-Euler family coincides with the Euler family exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import LambdaIsOne
from .polynomials import Poly
from .series import TruncatedSeries, _as_count, as_rational
from .umbral import ShefferPair, operator_apply, sheffer_polys


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
        _as_count(self.order_r, "family order")
        if self.kind is FamilyKind.FROBENIUS_EULER:
            if self.lam is None:
                raise ValueError("Frobenius-Euler family needs a lambda parameter")
            object.__setattr__(self, "lam", _as_lambda(self.lam))
        elif self.lam is not None:
            raise ValueError(f"{self.kind.value} family takes no lambda parameter")


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
_store: dict[FamilySpec, tuple[Poly, ...]] = {}


def family_polys(spec: FamilySpec, n_max: int) -> tuple[Poly, ...]:
    """Members 0..n_max of the family, built from its Sheffer pair.

    A spec is built once at the largest degree asked for so far; a smaller
    request is a slice of that table, equal to a fresh build because S_0..S_n
    read the pair's series only through degree n, and coefficient n of the
    compositional inverse depends on the delta series only through degree n.
    """
    _as_count(n_max, "n_max")  # before the store is touched
    table = _store.pop(spec, ())
    if n_max >= len(table):
        table = sheffer_polys(sheffer_pair_of(spec, n_max), n_max)
    _store[spec] = table  # reinserted as the most recently used
    if len(_store) > MAX_STORED_SPECS:
        del _store[next(iter(_store))]
    return table[: n_max + 1]


def family_poly(spec: FamilySpec, n: int) -> Poly:
    """The degree-n member of the family."""
    return family_polys(spec, n)[n]


def family_numbers(spec: FamilySpec, n_max: int) -> tuple[Fraction, ...]:
    """The family's number sequence: constant terms of members 0..n_max."""
    return tuple(p.coeff(0) for p in family_polys(spec, n_max))


def family_number(spec: FamilySpec, n: int) -> Fraction:
    """The family's n-th number (the degree-n member evaluated at 0)."""
    return family_poly(spec, n).coeff(0)


def hermite_poly_via_operator(n: int) -> Poly:
    """Hermite member by the operator route: e^{-t^2/4} applied to (2x)^n.

    An independent construction that must agree with the Sheffer route.
    """
    op = TruncatedSeries([0, 0, Fraction(-1, 4)], order=n).exp()
    return operator_apply(op, Poly.monomial(1, 2) ** n)
