"""Closed-form connection coefficients for the identity catalog, and the
engine that verifies each identity as an exact polynomial equation.

Identity ids t1..t3 expand a family in the Hermite basis; t4..t8 and
`remark` expand Hermite members in another family's basis:

* t1 / t2 / t3: order-r Euler / Bernoulli / Frobenius-Euler members in
  the Hermite basis, via the family's number sequence;
* t4 / t5: Hermite members in the order-r Euler basis (double-sum and
  Hermite-values forms of the same coefficients);
* t6 / t7: Hermite members in the order-r Bernoulli basis (t6 holds for
  r > n, t7 for n >= r with a split at k = r; a cell with no degree in
  the regime is refused);
* t8 / remark: Hermite members in the order-r Frobenius-Euler basis
  (Hermite-values and double-sum forms).

Frobenius-Euler at lam = -1 is Euler, so t4 / t5 share their formula
bodies with remark / t8.  Verification compares coefficient vectors,
never evaluations, so a PASS is an exact identity at the checked
parameters.  For the lambda families the identity is rational in lambda
of bounded degree, so checking n_max + r + 1 distinct samples
("symbolic" mode) proves it for every lambda != 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import RegimeViolation
from .families import (
    _as_lambda,
    bernoulli,
    euler,
    family_numbers,
    family_polys,
    frobenius_euler,
    hermite,
)
from .polynomials import stirling2
from .series import _as_count
from .umbral import _solve_in_basis

# id -> (family paired with Hermite, whether that family is expanded in the
# Hermite basis rather than Hermite in the family's basis).  Family constructors
# and tN_coeff are looked up by name when a cell runs, so a replaced one is used.
_CATALOG = {
    "t1": ("euler", True),
    "t2": ("bernoulli", True),
    "t3": ("frobenius_euler", True),
    "t4": ("euler", False),
    "t5": ("euler", False),
    "t6": ("bernoulli", False),
    "t7": ("bernoulli", False),
    "t8": ("frobenius_euler", False),
    "remark": ("frobenius_euler", False),
}

THEOREM_IDS = tuple(_CATALOG)

#: Default parameter samples for the lambda families (1 is never allowed).
DEFAULT_LAMBDAS = (Fraction(-1), Fraction(2), Fraction(1, 2))

_LAMBDA_SEED = DEFAULT_LAMBDAS + (Fraction(3), Fraction(-2), Fraction(5))


def _check_nkr(n: int, k: int, r: int):
    if _as_count(k, "k") > _as_count(n, "n"):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    _as_count(r, "r")


@lru_cache(maxsize=None)
def _hermite_value(m: int, j) -> Fraction:
    """Hermite member m evaluated at j."""
    return family_polys(hermite(), m)[m].eval(j)


def _hermite_basis_coeff(numbers, n: int, k: int) -> Fraction:
    # shared even-index sum: n! sum_m numbers[n-k-2m] / (k! (n-k-2m)! 2^(k+2m) m!)
    tot = Fraction(0)
    for m in range((n - k) // 2 + 1):
        tot += numbers[n - k - 2 * m] / (
            factorial(k) * factorial(n - k - 2 * m) * 2 ** (k + 2 * m) * factorial(m))
    return factorial(n) * tot


def t1_coeff(n: int, k: int, r: int) -> Fraction:
    """Hermite-basis coefficient of the degree-n order-r Euler member."""
    _check_nkr(n, k, r)
    return _hermite_basis_coeff(family_numbers(euler(r), n), n, k)


def t2_coeff(n: int, k: int, r: int) -> Fraction:
    """Hermite-basis coefficient of the degree-n order-r Bernoulli member."""
    _check_nkr(n, k, r)
    return _hermite_basis_coeff(family_numbers(bernoulli(r), n), n, k)


def t3_coeff(n: int, k: int, r: int, lam) -> Fraction:
    """Hermite-basis coefficient of the degree-n order-r Frobenius-Euler member."""
    _check_nkr(n, k, r)
    return _hermite_basis_coeff(family_numbers(frobenius_euler(r, lam), n), n, k)


def _double_sum(n: int, k: int, r: int, lam) -> Fraction:
    # remark's double sum, t4 at lam = -1: Hermite member n-k expanded term by term
    tot = Fraction(0)
    for j in range(r + 1):
        for l in range((n - k) // 2 + 1):
            tot += (
                comb(n, k) * comb(r, j) * 2 ** k * (-1) ** l * (-lam) ** (r - j)
                # a Fraction power, so 0^0 = 1 on the diagonal and the int lam = -1
                # of t4 still gives an exact quotient below
                * factorial(n - k) * Fraction(2 * j) ** (n - k - 2 * l)
                / (factorial(l) * factorial(n - k - 2 * l)))
    return tot / (1 - lam) ** r


def _hermite_values_sum(n: int, k: int, r: int, lam) -> Fraction:
    # t8's sum of Hermite values at 0..r, t5 at lam = -1
    tot = sum(
        comb(r, j) * (-lam) ** (r - j) * _hermite_value(n - k, j) for j in range(r + 1))
    return comb(n, k) * 2 ** k * tot / (1 - lam) ** r


def t4_coeff(n: int, k: int, r: int) -> Fraction:
    """Order-r Euler-basis coefficient of the degree-n Hermite member (double sum)."""
    _check_nkr(n, k, r)
    return _double_sum(n, k, r, -1)


def t5_coeff(n: int, k: int, r: int) -> Fraction:
    """Same coefficient as t4, through Hermite values at integer points."""
    _check_nkr(n, k, r)
    return _hermite_values_sum(n, k, r, -1)


def _stirling_route_coeff(n: int, k: int, r: int) -> Fraction:
    # the k < r shape shared by t6 and t7's first branch
    tot = Fraction(0)
    for j in range(k + 1):
        outer = (-1) ** (k - j) * comb(k, j)
        for l in range(n + 1):
            tot += (
                outer * 2 ** l * stirling2(l + r - k, r - k) * _hermite_value(n - l, j)
                * Fraction(factorial(r - k), factorial(l + r - k) * factorial(k) * factorial(n - l)))
    return factorial(n) * tot


def t6_coeff(n: int, k: int, r: int) -> Fraction:
    """Order-r Bernoulli-basis coefficient of the degree-n Hermite member, r > n."""
    _check_nkr(n, k, r)
    if r <= n:
        raise RegimeViolation(f"this form needs r > n, got r={r}, n={n}")
    return _stirling_route_coeff(n, k, r)


def t7_coeff(n: int, k: int, r: int) -> Fraction:
    """Order-r Bernoulli-basis coefficient of the degree-n Hermite member, n >= r.

    Splits at k = r: below it the Stirling-route shape applies, at and
    above it a single Hermite-values sum.
    """
    _check_nkr(n, k, r)
    if n < r:
        raise RegimeViolation(f"this form needs n >= r, got n={n}, r={r}")
    if k < r:
        return _stirling_route_coeff(n, k, r)
    tot = sum(
        comb(r, j) * (-1) ** (r - j) * _hermite_value(n - k + r, j) for j in range(r + 1))
    return Fraction(2 ** (k - r) * factorial(n), factorial(k) * factorial(n - k + r)) * tot


def t8_coeff(n: int, k: int, r: int, lam) -> Fraction:
    """Order-r Frobenius-Euler-basis coefficient of the degree-n Hermite member."""
    _check_nkr(n, k, r)
    return _hermite_values_sum(n, k, r, _as_lambda(lam))


def remark_coeff(n: int, k: int, r: int, lam) -> Fraction:
    """Double-sum form of the t8 coefficient; identical values."""
    _check_nkr(n, k, r)
    return _double_sum(n, k, r, _as_lambda(lam))


def lambda_samples(count: int, base=()) -> tuple[Fraction, ...]:
    """At least ``count`` distinct rational parameter samples, never 1.

    Samples from ``base`` come first (a value 1 there is an error); the
    default pool and then fresh integers fill up the remainder.
    """
    _as_count(count, "count")
    out = list(dict.fromkeys(_as_lambda(v) for v in base))
    fill = itertools.chain(_LAMBDA_SEED, map(Fraction, itertools.count(6)))
    while len(out) < count:
        v = next(fill)
        if v not in out:
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class Mismatch:
    """First failing coefficient of a verification run."""

    n: int
    k: int
    expected: Fraction
    got: Fraction
    lam: Fraction | None = None


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of verifying one identity over one parameter cell."""

    theorem_id: str
    n_max: int
    order_r: int
    lambdas: tuple[Fraction, ...] = ()
    status: str = "PASS"
    first_failure: Mismatch | None = None

    def __post_init__(self):
        if (self.status == "PASS") != (self.first_failure is None):
            raise ValueError("status must be PASS exactly when there is no failure")

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _first_mismatch(lhs_polys, basis_polys, coeff_fn, ns, lam=None) -> Mismatch | None:
    """First (n, k) where the closed form coeff_fn(n, k) differs from the solved coefficient.

    Each lhs_polys[n] is solved in the graded basis (basis_polys[k] has degree k),
    and lhs_n = sum_k c_k basis_k holds exactly when c is the solved row, so a PASS
    is the same polynomial equation as recombining the right-hand side.
    """
    solved = _solve_in_basis(lhs_polys, basis_polys)
    for n in ns:
        for k, expected in enumerate(solved[n]):
            got = coeff_fn(n, k)
            if got != expected:
                return Mismatch(n, k, expected, got, lam)
    return None


def verify_theorem(
    theorem_id: str,
    n_max: int,
    order_r: int = 0,
    lambdas=None,
    symbolic_lambda: bool = False,
) -> IdentityReport:
    """Verify one identity for all degrees up to n_max at the given order.

    For the lambda identities (t3, t8, remark) every sample in ``lambdas``
    (default DEFAULT_LAMBDAS) is checked; the other identities ignore it.
    ``symbolic_lambda`` widens the sample set to n_max + order_r + 1 values,
    enough to prove the identity for every parameter.  t6 requires
    order_r > n_max; t7 requires order_r <= n_max and checks the degrees
    order_r..n_max.
    """
    tid = str(theorem_id).lower()
    if tid not in _CATALOG:
        raise ValueError(f"unknown identity id {theorem_id!r}")
    _as_count(n_max, "n_max")
    r = _as_count(order_r, "order_r")
    if tid == "t6" and r <= n_max:
        raise RegimeViolation(f"t6 needs order_r > n_max, got order_r={r}, n_max={n_max}")
    if tid == "t7" and r > n_max:
        raise RegimeViolation(f"t7 needs order_r <= n_max, got order_r={r}, n_max={n_max}")

    family_name, in_hermite_basis = _CATALOG[tid]
    lams: tuple[Fraction, ...] = ()
    if family_name == "frobenius_euler":
        base = DEFAULT_LAMBDAS if lambdas is None else tuple(lambdas)
        count = n_max + r + 1 if symbolic_lambda else len(base)
        lams = lambda_samples(count, base)
        if not lams:
            raise ValueError("need at least one lambda sample")
    family, coeff = globals()[family_name], globals()[f"{tid}_coeff"]

    hermite_polys = family_polys(hermite(), n_max)
    ns = range(r if tid == "t7" else 0, n_max + 1)
    failure: Mismatch | None = None
    for lam in lams or (None,):
        params = (r,) if lam is None else (r, lam)
        polys = family_polys(family(*params), n_max)
        lhs, basis = (polys, hermite_polys) if in_hermite_basis else (hermite_polys, polys)
        failure = _first_mismatch(lhs, basis, lambda n, k: coeff(n, k, *params), ns, lam)
        if failure is not None:
            break

    return IdentityReport(
        theorem_id=tid,
        n_max=n_max,
        order_r=r,
        lambdas=lams,
        status="PASS" if failure is None else "FAIL",
        first_failure=failure,
    )
