"""Exception taxonomy for the riskeval package.

Every error raised by the library derives from RiskEvalError so callers can
catch one base class at the boundary. Input and construction problems derive
from ValidationError (also a ValueError); violations of internal identities
that should be unreachable derive from InternalInvariantError.
"""


class RiskEvalError(Exception):
    """Base class for all riskeval errors."""


class ValidationError(RiskEvalError, ValueError):
    """Invalid input data or parameters."""


class InternalInvariantError(RiskEvalError):
    """A computed result violated an identity it must satisfy. Indicates a bug."""


class NonFiniteValue(ValidationError):
    """A value that must be finite is NaN or infinite."""


class InvariantViolation(ValidationError):
    """Loaded or constructed data violates a structural invariant."""


class MassSumOutOfTolerance(InvariantViolation):
    """Probability masses do not sum to 1 within tolerance."""


class RiskOutOfRange(InvariantViolation):
    """A risk or prevalence lies outside [0, 1]."""


class ParameterOutOfRange(ValidationError):
    """A model or generator parameter lies outside its legal range."""


class DegenerateOutcome(ValidationError):
    """Population outcome rate is 0 or 1, so discrimination measures are undefined."""


class MeanMismatch(ValidationError):
    """Two tables being compared do not describe the same population mean."""


class MissingAssignment(ValidationError):
    """A joint cell's group key has no group in its model's table."""


class GroupKeyMismatch(ValidationError):
    """Source and target tables do not share the same group keys."""


class ParseError(ValidationError):
    """A file could not be parsed in the expected format."""


class NegativeRate(ValidationError):
    """An event or mortality rate is negative."""


class ZeroPersonYears(ValidationError):
    """A table cell reports cases but no person-years of follow-up."""


class EmptyInput(ValidationError):
    """No usable records or rows were supplied."""


class DegenerateBins(ValidationError):
    """Too few distinct risk values to form the requested number of bins."""
