"""umbra: an exact-arithmetic engine for Sheffer sequences.

Truncated power series over the rationals, the umbral pairing, the
classical Hermite / Bernoulli / Euler / Frobenius-Euler families, basis
changes between them, and exact verification of the closed-form
connection-coefficient identities.  Everything is a `fractions.Fraction`;
no operation ever rounds.
"""

__version__ = "0.1.0"

from fractions import Fraction as Rational

from . import errors, series, polynomials, umbral, families, identities
from .errors import *
from .series import *
from .polynomials import *
from .umbral import *
from .families import *
from .identities import *

__all__ = ["__version__", "Rational", *errors.__all__, *series.__all__, *polynomials.__all__,
           *umbral.__all__, *families.__all__, *identities.__all__]
