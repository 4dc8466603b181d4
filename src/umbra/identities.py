"""The identity catalog and the engine that verifies each identity exactly.

t1 / t2 / t3 expand an order-r Euler / Bernoulli / Frobenius-Euler member in the
Hermite basis (`_basis_rows`); t4 / t5 and t8 / remark expand a Hermite member in the
order-r Euler and Frobenius-Euler bases (`_weighted_rows`, two Hermite routes by
`_explicit_hermite`), t6 (r > n) and t7 (n >= r) in the Bernoulli one (`_stirling_rows`).
`verify_theorem` checks a cell (`_first_mismatch`); each tN_coeff reads one entry of
the rows the family store keeps under (id, spec).
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
    [x^(m-2l)] H_m = (-1)^l m!/(l! (m-2l)!) 2^(m-2l).  t4 and remark read this table and
    t5 and t8 `_stored_hermite`, which shares no code with it, so each pair checks two routes."""
    rows = [[0] * (m + 1) for m in range(n_max + 1)]
    for m, row in enumerate(rows):
        for l in range(m // 2 + 1):
            i = m - 2 * l
            row[i] = (-1) ** l * (factorial(m) // (factorial(l) * factorial(i))) << i
    return rows, 1


def _stored_hermite(n_max: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """[x^i] H_m for m <= n_max over one denominator: a slice of the stored Hermite table,
    built by the three-term recurrence of `families._build_rows`."""
    return _family_rows(hermite(), n_max)


# A row builder takes the family spec paired with Hermite, n_max and the Hermite table
# its rows read (None for t1-t3), and returns entry (n, k) of rows 0..n_max as rows[n][k] / d.

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
    """t6, and t7 below k = r: with j = r - k, n! j!/(k! (n+j)!) times
    sum_l D^k H_(n-l)(0) 2^l S(j+l, j) C(n+j, n-l), where the k-th forward difference at 0
    is D^k H_m(0) = k! sum_i [x^i]H_m S(i, k); t7 at and above k = r: 2^(k-r) n!
    D^r H_(n-k+r)(0) / (k! (n-k+r)!).  Each row is over (n+r)! dA, since k! (n+r-k)!
    divides (n+r)!, and row n is lifted to the table's (n_max+r)! dA by (n_max+r)!/(n+r)!."""
    r = spec.order_r
    coeffs, da = hermite_coeffs
    cols = [col[:] for col in _stirling2_columns(r, n_max + 1)]  # cols[j][l] = S(j+l, j)
    # diffs[m][k] = D^k H_m(0) dA, for k <= min(m, r)
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


# id -> (kind paired with Hermite, expanded in the Hermite basis?, Hermite table's name, builder)
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
    """Order-r Bernoulli-basis coefficient of the degree-n Hermite member, n >= r."""
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
    table) differ from the connection coefficients of lhs_spec in basis_spec, over the
    degrees ns: n by `_first_failing_row` on the stored tables, then k by solving row n."""
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

    Coefficient vectors are compared, never values, so a PASS is an exact identity at
    the checked parameters.  The lambda identities (t3, t8, remark) check every sample
    in ``lambdas`` (default DEFAULT_LAMBDAS); the others ignore it.  t6 requires
    order_r > n_max; t7 requires order_r <= n_max and checks degrees order_r..n_max.

    ``symbolic_lambda`` widens the samples to n_max + r + 1 distinct values (r = order_r),
    which proves the identity for every lambda != 1.  With u = 1/(1-lambda), the
    Frobenius-Euler g is (1 + u(e^t - 1))^r, so member n's coefficients have degree <= n
    in u, t3 entries degree <= n and t8 / remark entries degree <= r.  So every coefficient
    of a residual S_n - sum_k C_(n,k) R_k has degree <= n_max + r in u, and distinct
    lambda give distinct u: vanishing at n_max + r + 1 of them, it is zero.
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
