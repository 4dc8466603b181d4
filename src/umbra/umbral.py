"""The umbral pairing, operator action, Sheffer sequences, and basis changes.

A series acts on a polynomial as a linear functional (`pair_functional`) and as a
differential operator (`operator_apply`), with <f*g | p> = <g | f p>.  A Sheffer pair
(g, f), g invertible and f delta, determines S_n with <g f^k | S_n> = n! delta_(n,k),
generated by (1/g(fbar)) e^(y fbar(t)), fbar the inverse of f.  Every table is a
connection table (`_connection_table`), a Sheffer table being the one into x^n ~ (1, t);
`connection_oracle` solves one table in another (`_solve_in_basis`); `_first_failing_row`
checks a connection table on two Appell tables given by their numbers (`_expand`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm, perm
from operator import eq, mul

from .errors import NotDelta, NotInvertible, SingularBasis, TruncationTooShort
from .polynomials import Poly
from .series import TruncatedSeries, _Value, _as_count, _fractions, _reduce, _scale, as_rational
from .series import _binomial_convolve, _binomial_quotient, _compose, _divided, _pascal

__all__ = ["ShefferPair", "ConnectionMatrix", "pair_functional", "operator_apply",
           "eval_functional", "sheffer_poly", "sheffer_polys", "connection_coeffs",
           "connection_oracle"]

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

    Both series are held at a common truncation order.  The pair is (g, f): fbar,
    kept once read, is neither compared, hashed nor printed.
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
    """Rows n = 0..n_max of (n!/k!) [t^n] (a b^k), k <= n: entry (n, k) is rows[n][k] / d,
    from the divided powers n! [t^n] of a and b as integer vectors (nums, d > 0).

    The table is an exponential Riordan array: entry (n, k) is divided power n of column
    k = a b^k / k!, so one sweep of binomial convolutions, column k = (column k-1) * b / k,
    gives every entry with no n!/k! rescale; the rows are brought to the lcm of the
    columns' denominators.

    A series b = c t (divided powers 0, c, 0, ...), every built-in l(fbar), needs no sweep:
    b^k / k! = c^k t^k / k!, so entry (n, k) = (n!/k!) c^k a_(n-k) / (n-k)! = C(n, k) c^k
    a_(n-k), here over da db^n_max with C(n, k) read off Pascal's triangle.
    """
    pascal = _pascal(n_max)
    (na, da), (nb, db) = a, b
    if n_max and not any(nb[2: n_max + 1]):
        scale = [nb[1] ** k * db ** (n_max - k) for k in range(n_max + 1)]
        rows = [[pascal[k][n - k] * scale[k] * na[n - k] for k in range(n + 1)]
                for n in range(n_max + 1)]
        d = da * db ** n_max
    else:
        cols = [a]
        for k in range(1, n_max + 1):
            term, dk = cols[-1]
            cols.append(_reduce(_binomial_convolve(term, nb, pascal), dk * db * k))
        d = lcm(*(dk for _, dk in cols))
        rows = [[term[n] * (d // dk) for term, dk in cols[: n + 1]] for n in range(n_max + 1)]
    return tuple(map(tuple, rows)), d


def _sheffer_table(pair: ShefferPair, n_max: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """S_0..S_{n_max} for the pair as integer rows over one denominator, [x^k] S_n =
    rows[n][k] / d = (n!/k!) [t^n](1/g(fbar) fbar^k): the connection table into x^n ~
    (1, t) (Roman, 1984, ch. 3), t at order n_max + 1 as a delta series needs order 1.
    1(fbar) and t(fbar) are the vectors 1 and fbar exactly, as `_triangle` wants them."""
    t = TruncatedSeries.t(_as_count(n_max, "n_max") + 1)
    return _connection_table(pair, ShefferPair(TruncatedSeries.one(t.trunc_order), t), n_max)


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
    """The transfer-formula table of `connection_coeffs` as integer rows over one denominator."""
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

    It shares `_connection_table` with `connection_coeffs`, so a fault that scales every
    table alike (a lost n!/k!) cancels; the family store's finite sums catch that.
    """
    return ConnectionMatrix(_solve_in_basis(
        _sheffer_table(source, n_max), _sheffer_table(target, n_max), range(n_max + 1)))


def _check_graded(table, degrees, what: str):
    """Refuse a member of an integer table whose degree is not its index."""
    for n in degrees:
        if len(table[n]) != n + 1 or not table[n][n]:
            raise SingularBasis(f"{what} member {n} is not of degree {n}")


def _solve_in_basis(expanded, basis, ns) -> list[list[Fraction]]:
    """Rows n in ns of C with S_n = sum_k C_(n,k) R_k, by back substitution, from the
    integer tables expanded (S) and basis (R), R graded.  Each basis row, and each member
    solved, is first reduced to its own least denominator: the table's shared d would
    widen every integer of the solve."""
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


def _tied(rows, n: int, p: int, q: int) -> bool:
    """Whether row n of an integer table is tied to row n-1 in s = p/q: k q X_(n,k) ==
    n p X_(n-1,k-1) for 0 < k <= n, that is X_n' = n s X_(n-1).  Rows n and n-1 must
    hold n+1 and n entries; at n = 0 no k compares, and the row is tied."""
    return all(map(eq, map(mul, rows[n][1:], range(q, (n + 1) * q, q)),
                   map(mul, rows[n - 1], repeat(n * p))))


def _expand(appell, ns=None) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows ns (all, n < len(nums), by default) of the Appell table (nums, d, s) over d:
    [x^k] S_n = C(n, k) s^k c_(n-k), where c_m = nums[m] / d (Roman, 1984, ch. 2)."""
    nums, d, s = appell
    return tuple(tuple(comb(n, k) * s ** k * nums[n - k] for k in range(n + 1))
                 for n in (range(len(nums)) if ns is None else ns)), d


def _first_failing_row(table, basis, expanded, n_max: int) -> int | None:
    """The first degree n <= n_max where sum_k C_(n,k) R_k differs from S_n, or None.

    C (table) is an integer table (rows, d), entry (n, k) being rows[n][k] / d; R (basis)
    and S (expanded) are Appell tables (nums, d, s) through n_max, R in s_R x and S in
    s_S x (`_expand`).  One with c_0 = 0 is refused: none of its members n is of degree n.
    Else R is triangular with a nonzero diagonal, so S_n = sum_k C_(n,k) R_k holds exactly
    when row n is the solved one.  Rows below n have passed, so if row n of C is tied to
    row n-1 in rho = s_S / s_R (`_tied`, empty at n = 0), E_n = sum_k C_(n,k) R_k - S_n
    has E_n' = n s_S E_(n-1) = 0 (E_0 is a constant), and row n is right exactly when it
    is tied and E_n(0) = 0, one sum over R's numbers (the exact C is tied, by the
    uniqueness of its rows).  A row of C of the wrong length is refused when reached.
    """
    (rows, d), (r_nums, db, s_r), (s_nums, de, s_s) = table, basis, expanded
    for what, c_0 in (("basis", r_nums[0]), ("expanded", s_nums[0])):
        if not c_0:
            raise SingularBasis(f"{what} table has c_0 = 0: no member n is of degree n")
    for n in range(n_max + 1):
        nums = rows[n]
        if len(nums) != n + 1:
            raise ValueError(f"row {n} has {len(nums)} entries, expected {n + 1}")
        if not (_tied(rows, n, s_s, s_r)
                and sum(map(mul, nums, r_nums)) * de == s_nums[n] * d * db):
            return n
    return None
