"""Exception types raised by the umbra kernel."""

__all__ = ["UmbraError", "NotInvertible", "CompositionOrder", "NotDelta", "ExpConstantTerm",
           "TruncationTooShort", "SingularBasis", "LambdaIsOne", "RegimeViolation"]


class UmbraError(Exception):
    """Base class for all umbra errors."""


class NotInvertible(UmbraError):
    """Series has zero constant term, so no multiplicative reciprocal exists."""


class CompositionOrder(UmbraError):
    """Inner series of a composition has a nonzero constant term."""


class NotDelta(UmbraError):
    """Series is not a delta series (order exactly 1 with nonzero linear term)."""


class ExpConstantTerm(UmbraError):
    """Exponential of a series with nonzero constant term is not supported."""


class TruncationTooShort(UmbraError):
    """A series is not known to a high enough degree for the request."""


class SingularBasis(UmbraError):
    """A would-be Sheffer basis, or a family expanded in one, has a member of the wrong degree."""


class LambdaIsOne(UmbraError):
    """The Frobenius-Euler parameter must differ from 1."""


class RegimeViolation(UmbraError):
    """Parameters fall outside the regime an identity is stated for."""
