"""Exception taxonomy shared by all modules.

Each class maps to one CLI exit code, so callers can distinguish a
mathematical domain violation from a resource limit.
"""


class BohrIneqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BohrIneqError, ValueError):
    """Parameter or radius outside the mathematically valid range."""


class BudgetExceededError(BohrIneqError, RuntimeError):
    """Requested expansion would materialize more coefficients than allowed."""


class RootBracketError(BohrIneqError, ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class NonUniqueRootError(BohrIneqError, ValueError):
    """An exact Sturm count found other than one root in the bracket."""


class UnsupportedInterpretationError(BohrIneqError, ValueError):
    """The requested area-term interpretation is undefined for this input."""
