"""umbra: an exact-arithmetic engine for Sheffer sequences.

Truncated power series over the rationals, the umbral pairing, the
classical Hermite / Bernoulli / Euler / Frobenius-Euler families, basis
changes between them, and exact verification of the closed-form
connection-coefficient identities.  Everything is a `fractions.Fraction`;
no operation ever rounds.
"""

__version__ = "0.1.0"

from fractions import Fraction as Rational

from .errors import (
    CompositionOrder,
    ExpConstantTerm,
    LambdaIsOne,
    NotDelta,
    NotInvertible,
    RegimeViolation,
    SingularBasis,
    TruncationTooShort,
    UmbraError,
)
from .series import INFINITE, TruncatedSeries, as_rational
from .polynomials import Poly, falling_factorial, stirling1, stirling2
from .umbral import (
    ConnectionMatrix,
    ShefferPair,
    connection_coeffs,
    connection_oracle,
    eval_functional,
    operator_apply,
    pair_functional,
    sheffer_poly,
    sheffer_polys,
)
from .families import (
    FamilyKind,
    FamilySpec,
    bernoulli,
    euler,
    family_number,
    family_numbers,
    family_poly,
    family_polys,
    frobenius_euler,
    hermite,
    hermite_poly_via_operator,
    sheffer_pair_of,
)
from .identities import (
    DEFAULT_LAMBDAS,
    THEOREM_IDS,
    IdentityReport,
    Mismatch,
    lambda_samples,
    remark_coeff,
    t1_coeff,
    t2_coeff,
    t3_coeff,
    t4_coeff,
    t5_coeff,
    t6_coeff,
    t7_coeff,
    t8_coeff,
    verify_theorem,
)

__all__ = [
    "__version__",
    "Rational",
    "UmbraError",
    "NotInvertible",
    "CompositionOrder",
    "NotDelta",
    "ExpConstantTerm",
    "TruncationTooShort",
    "SingularBasis",
    "LambdaIsOne",
    "RegimeViolation",
    "INFINITE",
    "TruncatedSeries",
    "as_rational",
    "Poly",
    "falling_factorial",
    "stirling1",
    "stirling2",
    "ShefferPair",
    "ConnectionMatrix",
    "pair_functional",
    "operator_apply",
    "eval_functional",
    "sheffer_poly",
    "sheffer_polys",
    "connection_coeffs",
    "connection_oracle",
    "FamilyKind",
    "FamilySpec",
    "hermite",
    "bernoulli",
    "euler",
    "frobenius_euler",
    "sheffer_pair_of",
    "family_poly",
    "family_polys",
    "family_number",
    "family_numbers",
    "hermite_poly_via_operator",
    "THEOREM_IDS",
    "DEFAULT_LAMBDAS",
    "IdentityReport",
    "Mismatch",
    "lambda_samples",
    "t1_coeff",
    "t2_coeff",
    "t3_coeff",
    "t4_coeff",
    "t5_coeff",
    "t6_coeff",
    "t7_coeff",
    "t8_coeff",
    "remark_coeff",
    "verify_theorem",
]
