"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class ZeroInput(ToolkitError):
    """An operation that needs n >= 1 was given zero."""


class BadParameter(ToolkitError):
    """A parameter lies outside the operation's documented domain."""


class LimitTooLarge(ToolkitError):
    """A sieve or search limit exceeds the exactness cap of the 4-byte table."""


class UnsupportedFormat(ToolkitError):
    """The requested serialization format is not defined for this object."""


class VerificationFailed(ToolkitError):
    """An independent re-check rejected a result the fast path produced."""


class FactorBudgetExceeded(ToolkitError):
    """Brent rho spent its step budget on a cofactor without splitting it."""
