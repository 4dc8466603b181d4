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

Each identity has one row builder.  It gives rows 0..N (N = n_max) of the closed
form as one table (rows, d), integer numerators over one denominator, as the family
store's tables are, from tables that do not depend on k:

* t1..t3: n!/(k! 2^k) w(m), m = n - k, with w(m) the family's Hermite-basis
  sum, as C(n, k) 2^(m mod 2) W[m] over 2^n D, where w(m) = W[m] / (D m! 4^(m//2))
  and D is the family table's denominator; row n is shifted left N - n more bits
  to the table's 2^N D;
* t4, t5, t8, remark: C(n, k) 2^k w(n-k), where for lam = p/q
  w(m) = sum_i [x^i]H_m M_i / (q-p)^r, on the integer moments
  M_i = sum_j C(r, j) (-p)^(r-j) q^j j^i.
  Frobenius-Euler at lam = -1 is Euler, so t4 / t5 are remark / t8 at -1;
* t6, and t7 below k = r: with j = r - k, n! j!/(k! (n+j)!) times
  sum_l D^k H_(n-l)(0) 2^l S(j+l, j) C(n+j, n-l), where the k-th forward
  difference at 0 is D^k H_m(0) = k! sum_i [x^i]H_m S(i, k), and the Stirling
  columns S(j+l, j) are built once per row set;
* t7 at and above k = r: 2^(k-r) n! D^r H_(n-k+r)(0) / (k! (n-k+r)!).
  Both t7 branches and t6 share the row denominator (n+r)!; row n is multiplied
  by (N+r)!/(n+r)! to the table's (N+r)!.

A verification cell builds its rows when it runs and keeps no table, so its
verdict does not depend on the cells before it.  The basis family is triangular
with a nonzero diagonal, so lhs_n = sum_k C_{n,k} basis_k holds exactly when row n
is the solved one; a cell checks that equation on the integer family tables,
cross-multiplying with member n, so it builds no Fraction and solves nothing
(`_first_mismatch`, which the CLI's connect calls too).  Every family here is Appell
(Hermite in 2x), so the three tables are binomial-Toeplitz: one walk over the rows
(`umbral._first_failing_row`) recombines the basis with the first row in full and
decides each later row by its tie to the row before and its constant term, naming
the first failing degree in O(N^2).  Only that degree is solved in the basis, on
the same integer tables, to name the wrong k and its expected value.  The public tN_coeff
read one entry of the same rows, which the family store keeps under (id, spec)
beside the family tables, so a table built to degree N answers every lower degree.

t4 and remark read the explicit Hermite coefficients
[x^(m-2l)] H_m = (-1)^l m!/(l! (m-2l)!) 2^(m-2l), never the stored Hermite
table that t5..t8 read, which the family store builds by the three-term
recurrence with no code in common, so each pair checks two routes.
Verification compares coefficient vectors, never evaluations, so a PASS is an
exact identity at the checked parameters.  For the lambda families the
identity is rational in lambda of bounded degree, so checking n_max + r + 1
distinct samples ("symbolic" mode) proves it for every lambda != 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, perm

from .errors import RegimeViolation
from .families import FamilyKind, FamilySpec, _as_lambda, _family_rows, _stored, hermite
from .polynomials import _stirling2_columns
from .series import _Value, _as_count
from .umbral import _first_failing_row, _solve_in_basis

#: Default parameter samples for the lambda families (1 is never allowed).
DEFAULT_LAMBDAS = (Fraction(-1), Fraction(2), Fraction(1, 2))

_LAMBDA_SEED = DEFAULT_LAMBDAS + (Fraction(3), Fraction(-2), Fraction(5))


def _explicit_hermite(n_max: int) -> tuple[list[list[int]], int]:
    """[x^i] H_m for m <= n_max over the denominator 1, from
    [x^(m-2l)] H_m = (-1)^l m!/(l! (m-2l)!) 2^(m-2l); never reads the stored table."""
    rows = [[0] * (m + 1) for m in range(n_max + 1)]
    for m, row in enumerate(rows):
        for l in range(m // 2 + 1):
            i = m - 2 * l
            row[i] = (-1) ** l * (factorial(m) // (factorial(l) * factorial(i))) << i
    return rows, 1


def _stored_hermite(n_max: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """[x^i] H_m for m <= n_max over one denominator: a slice of the stored Hermite table,
    which the family store builds by H_(m+1) = 2x H_m - 2m H_(m-1), not by a Sheffer pair."""
    return _family_rows(hermite(), n_max)


# A row builder takes the family spec paired with Hermite, n_max and the Hermite
# coefficient table its rows read (None for t1-t3, which read none), and returns
# rows 0..n_max as one table (rows, d), the coefficient at (n, k) being rows[n][k] / d.

def _basis_rows(spec: FamilySpec, n_max: int, _hermite):
    """t1-t3: n!/(k! 2^k) w(n-k) as C(n, k) 2^(m mod 2) W[m] over 2^n D, m = n - k, where
    w(m) = sum_i b(m-2i) / ((m-2i)! 4^i i!) = W[m] / (D m! 4^(m//2)) for the numbers b = N / D:
    W[m] = sum_i N[m-2i] m!/((m-2i)! i!) 4^(m//2-i).  Row n is lifted to 2^n_max D."""
    numbers, d = _family_rows(spec, n_max)
    w = [sum(numbers[m - 2 * i][0] * (perm(m, 2 * i) // factorial(i)) << 2 * (m // 2 - i)
             for i in range(m // 2 + 1))
         for m in range(n_max + 1)]
    return [[comb(n, k) * w[n - k] << ((n - k) & 1) + n_max - n for k in range(n + 1)]
            for n in range(n_max + 1)], d << n_max


def _weighted_rows(spec: FamilySpec, n_max: int, hermite_coeffs):
    """t4, t5, t8, remark: C(n, k) 2^k w(n-k) over one denominator, where for lam = p/q
    w(m) = sum_i [x^i]H_m M_i / (q-p)^r, M_i = sum_j C(r, j) (-p)^(r-j) q^j j^i, and
    [x^i]H_m = A[m][i] / dA, explicit for t4 and remark and stored for t5 and t8."""
    coeffs, da = hermite_coeffs
    r = spec.order_r
    lam = -1 if spec.lam is None else spec.lam  # Euler is Frobenius-Euler at -1
    p, q = lam.numerator, lam.denominator
    weights = [comb(r, j) * (-p) ** (r - j) * q ** j for j in range(r + 1)]
    moments = [sum(c * j ** i for j, c in enumerate(weights)) for i in range(n_max + 1)]
    w = [sum(c * mo for c, mo in zip(row, moments)) for row in coeffs]
    d = da * (q - p) ** r
    return [[comb(n, k) * w[n - k] << k for k in range(n + 1)] for n in range(n_max + 1)], d


def _stirling_rows(spec: FamilySpec, n_max: int, hermite_coeffs):
    """t6 and t7 over (n+r)! dA, since k! (n+r-k)! divides (n+r)! by C(n+r, k); row n is
    lifted to the table's (n_max+r)! dA by (n_max+r)!/(n+r)!."""
    r = spec.order_r
    coeffs, da = hermite_coeffs
    cols = [col[:] for col in _stirling2_columns(r, n_max + 1)]  # cols[j][l] = S(j+l, j)
    # diffs[m][k] = D^k H_m(0) dA = k! sum_i [x^i]H_m S(i, k) dA, for k <= min(m, r)
    diffs = [[factorial(k) * sum(c * s for c, s in zip(row[k:], cols[k]))
              for k in range(min(m, r) + 1)] for m, row in enumerate(coeffs)]
    rows = []
    for n in range(n_max + 1):
        lift = factorial(n) * perm(n_max + r, n_max - n)
        row = []
        for k in range(n + 1):
            if k < r:
                j = r - k
                tot = sum(diffs[n - l][k] * cols[j][l] * comb(n + j, n - l) << l
                          for l in range(n - k + 1))
                row.append(lift * factorial(j) * comb(n + r, k) * tot)
            else:
                row.append(lift * comb(n + r, k) * diffs[n - k + r][r] << (k - r))
        rows.append(row)
    return rows, factorial(n_max + r) * da


# id -> (kind of the family paired with Hermite, whether that family is expanded
# in the Hermite basis rather than Hermite in the family's basis, the Hermite table
# the rows read, row builder).  Hermite tables are looked up by name, so a replaced
# one is used.  Each time a cell runs, verify_theorem builds its Hermite table once
# and calls the builder found here for each lambda sample; the public tN_coeff keep
# their rows in the family store, under (id, spec).
_CATALOG = {
    "t1": (FamilyKind.EULER, True, None, _basis_rows),
    "t2": (FamilyKind.BERNOULLI, True, None, _basis_rows),
    "t3": (FamilyKind.FROBENIUS_EULER, True, None, _basis_rows),
    "t4": (FamilyKind.EULER, False, "_explicit_hermite", _weighted_rows),
    "t5": (FamilyKind.EULER, False, "_stored_hermite", _weighted_rows),
    "t6": (FamilyKind.BERNOULLI, False, "_stored_hermite", _stirling_rows),
    "t7": (FamilyKind.BERNOULLI, False, "_stored_hermite", _stirling_rows),
    "t8": (FamilyKind.FROBENIUS_EULER, False, "_stored_hermite", _weighted_rows),
    "remark": (FamilyKind.FROBENIUS_EULER, False, "_explicit_hermite", _weighted_rows),
}

THEOREM_IDS = tuple(_CATALOG)


def _degrees(tid: str, n_max: int, r: int) -> range:
    """The degrees a cell of tid checks at order r: t6 holds for r > n, and t7 for n >= r,
    so t6 refuses r <= n_max and t7 refuses r > n_max, where it would check no degree."""
    if tid == "t6" and r <= n_max:
        raise RegimeViolation(f"t6 needs order_r > n_max, got order_r={r}, n_max={n_max}")
    if tid == "t7" and r > n_max:
        raise RegimeViolation(f"t7 needs order_r <= n_max, got order_r={r}, n_max={n_max}")
    return range(r if tid == "t7" else 0, n_max + 1)


def _hermite_table(tid: str, n_max: int):
    """The Hermite coefficients through degree n_max that tid's rows read, or None."""
    name = _CATALOG[tid][2]
    return name and globals()[name](n_max)


def _entry(tid: str, n: int, k: int, r: int, *lam) -> Fraction:
    """Entry (n, k) of tid's rows for the order-r family (at lam for t3, t8 and remark)."""
    if _as_count(k, "k") > _as_count(n, "n"):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    _degrees(tid, n, _as_count(r, "r"))
    kind, _, _, build = _CATALOG[tid]
    spec = FamilySpec(kind, r, *lam)
    rows, d = _stored((tid, spec), n, lambda m: build(spec, m, _hermite_table(tid, m)))
    return Fraction(rows[n][k], d)


def t1_coeff(n: int, k: int, r: int) -> Fraction:
    """Hermite-basis coefficient of the degree-n order-r Euler member."""
    return _entry("t1", n, k, r)


def t2_coeff(n: int, k: int, r: int) -> Fraction:
    """Hermite-basis coefficient of the degree-n order-r Bernoulli member."""
    return _entry("t2", n, k, r)


def t3_coeff(n: int, k: int, r: int, lam) -> Fraction:
    """Hermite-basis coefficient of the degree-n order-r Frobenius-Euler member."""
    return _entry("t3", n, k, r, lam)


def t4_coeff(n: int, k: int, r: int) -> Fraction:
    """Order-r Euler-basis coefficient of the degree-n Hermite member (double sum)."""
    return _entry("t4", n, k, r)


def t5_coeff(n: int, k: int, r: int) -> Fraction:
    """Same coefficient as t4, through Hermite values at integer points."""
    return _entry("t5", n, k, r)


def t6_coeff(n: int, k: int, r: int) -> Fraction:
    """Order-r Bernoulli-basis coefficient of the degree-n Hermite member, r > n."""
    return _entry("t6", n, k, r)


def t7_coeff(n: int, k: int, r: int) -> Fraction:
    """Order-r Bernoulli-basis coefficient of the degree-n Hermite member, n >= r.

    Splits at k = r: below it the Stirling-route shape of t6 applies, at and
    above it a single r-th forward difference.
    """
    return _entry("t7", n, k, r)


def t8_coeff(n: int, k: int, r: int, lam) -> Fraction:
    """Order-r Frobenius-Euler-basis coefficient of the degree-n Hermite member."""
    return _entry("t8", n, k, r, lam)


def remark_coeff(n: int, k: int, r: int, lam) -> Fraction:
    """Double-sum form of the t8 coefficient; identical values."""
    return _entry("remark", n, k, r, lam)


def lambda_samples(count: int, base=()) -> tuple[Fraction, ...]:
    """At least ``count`` distinct rational parameter samples, never 1.

    Samples from ``base`` come first (a value 1 there is an error), each once; the
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


class Mismatch(_Value):
    """First failing coefficient of a verification run."""

    __slots__ = _fields = ("n", "k", "expected", "got", "lam")

    def __init__(self, n: int, k: int, expected: Fraction, got: Fraction,
                 lam: Fraction | None = None):
        self._set(n, k, expected, got, lam)


class IdentityReport(_Value):
    """Outcome of verifying one identity over one parameter cell."""

    __slots__ = _fields = (
        "theorem_id", "n_max", "order_r", "lambdas", "status", "first_failure")

    def __init__(self, theorem_id: str, n_max: int, order_r: int,
                 lambdas: tuple[Fraction, ...] = (), status: str = "PASS",
                 first_failure: Mismatch | None = None):
        if status not in ("PASS", "FAIL"):
            raise ValueError(f"status must be PASS or FAIL, got {status!r}")
        if (status == "PASS") != (first_failure is None):
            raise ValueError("status must be PASS exactly when there is no failure")
        self._set(theorem_id, n_max, order_r, lambdas, status, first_failure)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _first_mismatch(lhs_spec, basis_spec, table, ns, lam=None) -> Mismatch | None:
    """First (n, k) where the rows of table (a cell's closed form, or connect's transfer
    table) differ from the connection coefficients of lhs_spec in basis_spec.

    The degrees in ns are checked against the stored basis table in one walk
    (`_first_failing_row`), so a PASS builds no Fraction and solves nothing; only the
    first failing member n is solved in the basis, on the same two tables, to name k.
    """
    n_max = ns[-1]
    basis, lhs = _family_rows(basis_spec, n_max), _family_rows(lhs_spec, n_max)
    n = _first_failing_row(table, basis, lhs, ns)
    if n is None:
        return None
    rows, d = table
    [solved] = _solve_in_basis(lhs, basis, [n])
    k = next(k for k, want in enumerate(solved)
             if want.numerator * d != rows[n][k] * want.denominator)
    return Mismatch(n, k, solved[k], Fraction(rows[n][k], d), lam)


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
    ns = _degrees(tid, n_max, r)

    kind, in_hermite_basis, _, build = _CATALOG[tid]
    lams: tuple[Fraction, ...] = ()
    if kind is FamilyKind.FROBENIUS_EULER:
        base = DEFAULT_LAMBDAS if lambdas is None else tuple(lambdas)
        # the distinct values given, filled up only for the symbolic sample count
        lams = lambda_samples(n_max + r + 1 if symbolic_lambda else 0, base)
        if not lams:
            raise ValueError("need at least one lambda sample")

    table = _hermite_table(tid, n_max)  # once for all the cell's lambda samples
    failure: Mismatch | None = None
    for lam in lams or (None,):
        spec = FamilySpec(kind, r, lam)
        lhs, basis = (spec, hermite()) if in_hermite_basis else (hermite(), spec)
        failure = _first_mismatch(lhs, basis, build(spec, n_max, table), ns, lam)
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
