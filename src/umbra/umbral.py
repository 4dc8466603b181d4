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
solve against the integer Sheffer tables (`connection_oracle`); the two
routes must agree exactly, though both build their tables with `_triangle`.
Both tables are exponential Riordan arrays: the route composes on ordinary coefficients,
then takes the one quotient h(fbar)/g(fbar) (1/g(fbar) for a Sheffer table) and `_triangle`'s
column sweep on divided powers, where a built-in g needs no denominator near n_max!.
The CLI's `connect` checks the integer transfer table `_connection_table` as
verify checks a cell (`identities._first_mismatch`): `_first_failing_row`
recombines the target family's stored table, which no series code builds, with
each row and compares it with the source's member, so a passing table is not
solved.  `connection_oracle` is the solve kept for the API and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm, perm
from operator import mul

from .errors import NotDelta, NotInvertible, SingularBasis, TruncationTooShort
from .polynomials import Poly
from .series import TruncatedSeries, _Value, _as_count, _fractions, _reduce, _scale, as_rational
from .series import _binomial_convolve, _binomial_quotient, _compose, _divided, _pascal

_ZERO = Fraction(0)


def _require_known(known: int, degree: int, use: str):
    """Refuse a request for degree ``degree`` from a series known through degree ``known``."""
    if known < degree:
        raise TruncationTooShort(f"series known to degree {known} cannot {use} degree {degree}")


def pair_functional(f: TruncatedSeries, p: Poly) -> Fraction:
    """The pairing <f | p> = sum_n n! c_n(f) p_n over the monomial weights of p."""
    _require_known(f.trunc_order, p.degree, "pair with a polynomial of")
    return sum((factorial(n) * c * pn for n, (c, pn) in enumerate(zip(f.coeffs, p.coeffs))), _ZERO)


def operator_apply(f: TruncatedSeries, p: Poly) -> Poly:
    """f acting as a differential operator: [x^i] f p = sum_k c_k(f) (i+k)!/i! p_(i+k)."""
    _require_known(f.trunc_order, p.degree, "act on a polynomial of")
    m = len(p.coeffs)
    (c, dc), (q, dq) = _scale(f.coeffs[:m]), _scale(p.coeffs)
    return Poly([
        Fraction(sum(c[k] * perm(i + k, k) * q[i + k] for k in range(m - i) if c[k]), dc * dq)
        for i in range(m)])


def eval_functional(y, order: int) -> TruncatedSeries:
    """The evaluation functional e^{yt} truncated at ``order``; pairs to p(y)."""
    return TruncatedSeries([0, y], order=order).exp()


class ShefferPair(_Value):
    """An invertible series g and a delta series f, with f's inverse fbar.

    Both series are held at a common truncation order.  fbar is computed when
    first read and kept, so a pair whose inverse nobody reads (connect's target)
    never inverts f.  The pair is (g, f): fbar is neither compared, hashed nor printed.
    """

    __slots__ = ("g", "f", "_fbar")
    _fields = ("g", "f")

    def __init__(self, g: TruncatedSeries, f: TruncatedSeries):
        n = min(g.trunc_order, f.trunc_order)
        g, f = g.truncate(n), f.truncate(n)
        if g.order != 0:
            raise NotInvertible("g of a Sheffer pair must be an invertible series")
        if f.order != 1:
            raise NotDelta("f of a Sheffer pair must be a delta series (order exactly 1)")
        self._set(g, f, None)

    @property
    def fbar(self) -> TruncatedSeries:
        """The compositional inverse of f, computed on first read."""
        if self._fbar is None:
            object.__setattr__(self, "_fbar", self.f.comp_inverse())
        return self._fbar

    @property
    def trunc_order(self) -> int:
        return self.g.trunc_order


def _triangle(a, b, n_max: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows n = 0..n_max of (n!/k!) [t^n] (a b^k), k <= n: entry (n, k) is rows[n][k] / d.

    Sheffer tables (a = 1/g(fbar), b = fbar) and transfer tables (a = h(fbar)/g(fbar),
    b = l(fbar)) come from here, a and b given by their divided powers n! [t^n] as integer
    vectors (nums, d) known through n_max.  The table is an exponential Riordan array:
    entry (n, k) is divided power n of column k = a b^k / k!, so one sweep of binomial
    convolutions, column k = (column k-1) * b / k, gives each entry with no n!/k! rescale,
    over its column's denominator; the rows are brought to the lcm of those, and one gcd
    makes that the least one.
    """
    pascal = _pascal(n_max)
    nb, db = b
    cols = [a]
    for k in range(1, n_max + 1):
        term, dk = cols[-1]
        cols.append(_reduce(_binomial_convolve(term, nb, pascal), dk * db * k))
    d = lcm(*(dk for _, dk in cols))
    rows = [[term[n] * (d // dk) for term, dk in cols[: n + 1]] for n in range(n_max + 1)]
    g = gcd(d, *chain.from_iterable(rows))
    return tuple(tuple(x // g for x in row) for row in rows), d // g


def _sheffer_table(pair: ShefferPair, n_max: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """S_0..S_{n_max} for the pair as integer rows over one denominator: [x^k] S_n = rows[n][k] / d.

    With A = 1/g(fbar) and B = fbar, coefficient k of S_n is (n!/k!) [t^n](A B^k).
    """
    _require_known(pair.trunc_order, _as_count(n_max, "n_max"), "give a member of")
    fbar, g = (_scale(s.coeffs[: n_max + 1]) for s in (pair.fbar, pair.g))
    over_g = _binomial_quotient(([1] + [0] * n_max, 1), _divided(_compose(g, fbar)))
    return _triangle(over_g, _divided(fbar), n_max)


def sheffer_polys(pair: ShefferPair, n_max: int) -> tuple[Poly, ...]:
    """S_0..S_{n_max} for the pair, from the generating identity (see `_sheffer_table`)."""
    rows, d = _sheffer_table(pair, n_max)
    return tuple(Poly(_fractions(row, d)) for row in rows)


def sheffer_poly(pair: ShefferPair, n: int) -> Poly:
    """The degree-n member of the pair's Sheffer sequence."""
    rows, d = _sheffer_table(pair, n)
    return Poly(_fractions(rows[n], d))


class ConnectionMatrix(_Value):
    """Lower-triangular table C_{n,k} expressing one sequence in another's basis."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(as_rational, r)) for r in rows)  # canonical Fractions
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
        self._set(rows)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> Fraction:
        if not 0 <= k <= n <= self.n_max:
            raise IndexError(f"entry ({n}, {k}) outside the triangular table")
        return self.rows[n][k]

    def __repr__(self):
        return f"ConnectionMatrix(n_max={self.n_max})"


def _connection_table(source: ShefferPair, target: ShefferPair, n_max: int):
    """The transfer-formula table of `connection_coeffs` as integer rows over one denominator;
    each series is `_scale`d once, and from there on no Fraction is built.  h(fbar), g(fbar)
    and l(fbar) are composed on ordinary coefficients and then go to divided powers, where
    one solve gives h(fbar)/g(fbar) and `_triangle` runs: every built-in g is of e.g.f. type,
    whose ordinary coefficients sit over a denominator near n_max! and its divided powers do not."""
    _require_known(
        min(source.trunc_order, target.trunc_order), _as_count(n_max, "n_max"),
        "give connection coefficients of")
    fbar, g, h, l = (
        _scale(s.coeffs[: n_max + 1]) for s in (source.fbar, source.g, target.g, target.f))
    h_at, g_at, l_at = (_divided(_compose(s, fbar)) for s in (h, g, l))
    return _triangle(_binomial_quotient(h_at, g_at), l_at, n_max)


def connection_coeffs(source: ShefferPair, target: ShefferPair, n_max: int) -> ConnectionMatrix:
    """Transfer-formula route: C_{n,k} = (n!/k!) [t^n] (h(fbar)/g(fbar) * l(fbar)^k).

    Here source ~ (g, f) and target ~ (h, l); fbar is the inverse of the
    source's delta series.  Satisfies S_n = sum_k C_{n,k} r_k exactly.
    """
    rows, d = _connection_table(source, target, n_max)
    return ConnectionMatrix(_fractions(row, d) for row in rows)


def connection_oracle(source: ShefferPair, target: ShefferPair, n_max: int) -> ConnectionMatrix:
    """Solve route: build both integer Sheffer tables and solve the triangular system.

    It shares `_triangle` and `_binomial_quotient` with `connection_coeffs`, so a fault that
    scales every table alike (a lost n!/k!) cancels; the family store's finite sums catch that.
    """
    return ConnectionMatrix(_solve_in_basis(
        _sheffer_table(source, n_max), _sheffer_table(target, n_max), range(n_max + 1)))


def _check_graded(table, degrees, what: str):
    """Refuse a member of an integer table whose degree is not its index."""
    for n in degrees:
        if len(table[n]) != n + 1 or not table[n][n]:
            raise SingularBasis(f"{what} member {n} is not of degree {n}")


def _solve_in_basis(expanded, basis, ns) -> list[list[Fraction]]:
    """Rows n in ns of C with S_n = sum_k C_(n,k) R_k, by back substitution.

    expanded (S) and basis (R) are integer tables (rows, d) as `_sheffer_table` gives
    them, and the basis must be graded.  Each basis row, and each member solved, is
    first reduced to its own least denominator: the table's shared d would widen
    every integer of the solve.
    """
    (expanded, de), (basis, db) = expanded, basis
    _check_graded(basis, range(ns[-1] + 1), "basis")
    scaled = [_reduce(row, db) for row in basis[: ns[-1] + 1]]
    rows = []
    for n in ns:
        # fraction-free back substitution: the residual's x^i coefficient is nums[i] / d
        nums, d = _reduce(list(expanded[n]), de)
        row = [_ZERO] * (n + 1)
        for k in range(n, -1, -1):
            b, dk = scaled[k]
            lead, top = b[k], nums.pop()
            if top:
                row[k] = Fraction(top * dk, d * lead)
                nums, d = _reduce([x * lead - top * y for x, y in zip(nums, b)], d * lead)
        rows.append(row)
    return rows


def _first_failing_row(table, basis, expanded, ns) -> int | None:
    """The first degree n in ns where sum_k C_(n,k) R_k differs from S_n, or None.

    C (table), R (basis) and S (expanded) are integer tables (rows, d): entry (n, k) of
    C is rows[n][k] / d, and R and S are as the family store gives them.  R is
    triangular with a nonzero diagonal, so S_n = sum_k C_(n,k) R_k holds exactly when
    row n is the solved one.  Each coefficient x^0..x^n of the recombined row is
    cross-multiplied with S_n, so no Fraction is built and nothing is solved.  A member
    of R or S whose degree is not its index is refused before anything is compared.
    """
    n_max = ns[-1]
    (rows, d), (basis, db), (expanded, de) = table, basis, expanded
    _check_graded(basis, range(n_max + 1), "basis")
    _check_graded(expanded, ns, "expanded")
    # cols[i][k - i] = [x^i] R_k, so [x^i] sum_k C_(n,k) R_k is a sum over one column
    cols = [[row[i] for row in basis[i:]] for i in range(n_max + 1)]
    scale = d * db
    for n in ns:
        nums = rows[n]
        if len(nums) != n + 1:
            raise ValueError(f"row {n} has {len(nums)} entries, expected {n + 1}")
        if not all(sum(map(mul, nums[i:], col)) * de == x * scale
                   for i, (col, x) in enumerate(zip(cols, expanded[n]))):
            return n
    return None
