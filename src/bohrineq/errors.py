"""Exception taxonomy shared by all modules.

Each base class maps to one CLI exit code, shared by its subclasses, so
callers can tell a mathematical domain violation from a resource limit.
"""


class BohrIneqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BohrIneqError, ValueError):
    """Parameter or radius outside the mathematically valid range."""


class BudgetExceededError(BohrIneqError, RuntimeError):
    """Requested expansion would materialize more coefficients than allowed."""


class RootBracketError(DomainError):
    """Root bracket endpoints do not straddle a sign change."""


class NonUniqueRootError(DomainError):
    """An exact Sturm count found other than one root in the bracket."""


class UnsupportedInterpretationError(DomainError):
    """The requested area-term interpretation is undefined for this input."""
