"""The umbral pairing, operator action, Sheffer sequences, and basis changes.

A series acts on polynomials two ways.  As a linear functional the pairing
is <f | x^n> = n! * c_n(f) (the n! compensates for ordinary-coefficient
storage, where the functional's weight on x^n is the divided-power
coefficient).  As an operator, t differentiates: f acts as
sum_k c_k(f) d^k/dx^k.  The two actions satisfy the adjoint law
<f*g | p> = <g | f p>.

A Sheffer pair (g, f) - g invertible, f delta - determines the unique
polynomial sequence S_n with <g f^k | S_n> = n! delta_{n,k}, generated by
(1/g(fbar)) e^{y fbar(t)} where fbar is the compositional inverse of f.
Connection coefficients between two such sequences come either from the
transfer formula (`connection_coeffs`) or from an explicit triangular
solve against the constructed polynomials (`connection_oracle`); the two
routes must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import NotInvertible, SingularBasis, TruncationTooShort
from .polynomials import Poly
from .series import TruncatedSeries, _as_count

_ZERO = Fraction(0)


def _require_known(known: int, degree: int, use: str):
    """Refuse a request for degree ``degree`` from a series known through degree ``known``."""
    if known < degree:
        raise TruncationTooShort(f"series known to degree {known} cannot {use} degree {degree}")


def pair_functional(f: TruncatedSeries, p: Poly) -> Fraction:
    """The pairing <f | p> = sum_n n! c_n(f) p_n over the monomial weights of p."""
    _require_known(f.trunc_order, p.degree, "pair with a polynomial of")
    acc = _ZERO
    for n in range(p.degree + 1):
        cn = f.coeff(n)
        pn = p.coeff(n)
        if cn and pn:
            acc += factorial(n) * cn * pn
    return acc


def operator_apply(f: TruncatedSeries, p: Poly) -> Poly:
    """f acting as a differential operator: sum_k c_k(f) p^(k)(x)."""
    _require_known(f.trunc_order, p.degree, "act on a polynomial of")
    result = Poly.zero()
    dk = p
    for k in range(p.degree + 1):
        ck = f.coeff(k)
        if ck:
            result = result + ck * dk
        dk = dk.derivative()
        if dk.degree < 0:
            break
    return result


def eval_functional(y, order: int) -> TruncatedSeries:
    """The evaluation functional e^{yt} truncated at ``order``; pairs to p(y)."""
    return TruncatedSeries([0, y], order=order).exp()


@dataclass(frozen=True, slots=True)
class ShefferPair:
    """An invertible series g and a delta series f, with f's inverse cached.

    Both series are held at a common truncation order; the compositional
    inverse is computed once at construction.
    """

    g: TruncatedSeries
    f: TruncatedSeries
    fbar: TruncatedSeries = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = min(self.g.trunc_order, self.f.trunc_order)
        object.__setattr__(self, "g", self.g.truncate(n))
        object.__setattr__(self, "f", self.f.truncate(n))
        if self.g.order != 0:
            raise NotInvertible("g of a Sheffer pair must be an invertible series")
        object.__setattr__(self, "fbar", self.f.comp_inverse())

    @property
    def trunc_order(self) -> int:
        return self.g.trunc_order


def _triangle(a: TruncatedSeries, b: TruncatedSeries, n_max: int) -> list[list[Fraction]]:
    """Rows n = 0..n_max of (n!/k!) [t^n] (a b^k), k <= n; ``a`` is known through n_max."""
    cols = [a.coeffs]
    term = a
    for _ in range(n_max):
        term = term * b
        cols.append(term.coeffs)
    return [
        [Fraction(factorial(n), factorial(k)) * cols[k][n] for k in range(n + 1)]
        for n in range(n_max + 1)]


def sheffer_polys(pair: ShefferPair, n_max: int) -> tuple[Poly, ...]:
    """S_0..S_{n_max} for the pair, from the generating identity.

    With A = 1/g(fbar) and B = fbar, coefficient k of S_n is
    (n!/k!) [t^n](A B^k); one sweep over k fills the whole triangle.
    """
    _require_known(pair.trunc_order, _as_count(n_max, "n_max"), "give a member of")
    fbar = pair.fbar.truncate(n_max)
    a = pair.g.compose(fbar).reciprocal()
    return tuple(Poly(row) for row in _triangle(a, fbar, n_max))


def sheffer_poly(pair: ShefferPair, n: int) -> Poly:
    """The degree-n member of the pair's Sheffer sequence."""
    return sheffer_polys(pair, n)[n]


@dataclass(frozen=True, slots=True)
class ConnectionMatrix:
    """Lower-triangular table C_{n,k} expressing one sequence in another's basis."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
        object.__setattr__(self, "rows", rows)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Fraction:
        if not 0 <= k <= n <= self.n_max:
            raise IndexError(f"entry ({n}, {k}) outside the triangular table")
        return self.rows[n][k]

    def __repr__(self):
        return f"ConnectionMatrix(n_max={self.n_max})"


def connection_coeffs(source: ShefferPair, target: ShefferPair, n_max: int) -> ConnectionMatrix:
    """Transfer-formula route: C_{n,k} = (n!/k!) [t^n] (h(fbar)/g(fbar) * l(fbar)^k).

    Here source ~ (g, f) and target ~ (h, l); fbar is the inverse of the
    source's delta series.  Satisfies S_n = sum_k C_{n,k} r_k exactly.
    """
    _require_known(
        min(source.trunc_order, target.trunc_order), _as_count(n_max, "n_max"),
        "give connection coefficients of")
    fbar = source.fbar.truncate(n_max)
    h_at = target.g.compose(fbar)
    g_at = source.g.compose(fbar)
    l_at = target.f.compose(fbar)
    return ConnectionMatrix(_triangle(h_at * g_at.reciprocal(), l_at, n_max))


def connection_oracle(source: ShefferPair, target: ShefferPair, n_max: int) -> ConnectionMatrix:
    """Independent route: build both sequences and solve the triangular system."""
    sources = sheffer_polys(source, n_max)
    targets = sheffer_polys(target, n_max)
    return ConnectionMatrix(_solve_in_basis(sources, targets))


def _solve_in_basis(polys, basis):
    """Express each polys[n] in the graded basis (basis[k] must have degree k)."""
    for k, r in enumerate(basis):
        if r.degree != k:
            raise SingularBasis(f"basis member {k} has degree {r.degree}, expected {k}")
    rows = []
    for n, residual in enumerate(polys):
        row = [_ZERO] * (n + 1)
        for k in range(n, -1, -1):
            c = residual.coeff(k) / basis[k].coeff(k)
            row[k] = c
            if c:
                residual = residual + (-c) * basis[k]
        rows.append(row)
    return rows
