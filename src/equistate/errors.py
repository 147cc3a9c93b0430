"""Exception hierarchy shared by all equistate modules."""


class EquistateError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveArgument(EquistateError):
    """A logarithm (or similar) was requested on a value that may be <= 0."""


class MonotonicityViolation(EquistateError):
    """Appending a term would break a directed sequence's monotonicity."""


class EvaluationFailure(EquistateError):
    """A function could not be evaluated at a required point."""


class SpaceMismatch(EquistateError):
    """Two measures live on different underlying spaces."""


class InexactImage(EquistateError):
    """A pushforward image is not exactly representable."""


class PrecisionExhausted(EquistateError):
    """The internal precision cap was reached before certification."""


class ExcludedPoint(EquistateError):
    """The evaluation point lies in the operation's excluded set."""


class ExcludedAnchor(EquistateError):
    """No acceptable anchor point was found within the search bound."""


class NotInjectiveOnSupport(EquistateError):
    """The map is not injective on the support of the measure."""


class NotInjectiveOnPatch(EquistateError):
    """The map is not injective on a patch where injectivity is required."""


class NonPositiveJacobian(EquistateError):
    """A Jacobian value is not certifiably positive."""


class NotAVertex(EquistateError):
    """The given point is not a vertex of the tile complex at this level."""


class RuleMismatch(EquistateError):
    """A subdivision rule name that is not one of the known rules."""


class ParseError(EquistateError):
    """A textual description (map, potential, rational) could not be parsed."""
