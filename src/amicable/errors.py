"""Exception types shared across the toolkit, and its one integer gate."""


class ToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class ZeroInput(ToolkitError):
    """An operation that needs n >= 1 was given zero."""


class BadParameter(ToolkitError):
    """A parameter lies outside the operation's documented domain."""


def need_int(value, least, message: str) -> None:
    """The one integer gate: refuse `value` unless it is an int of at least `least`.

    A bool counts as the int it is; a numpy integer, a float (7.0 included), a
    str or None is refused with `message` and the name of the type received.
    The type is checked before the range, and `least` None sets no lower bound.
    """
    if not isinstance(value, int):
        raise BadParameter(f"{message}, got {type(value).__name__}")
    if least is not None and value < least:
        raise BadParameter(message)


class LimitTooLarge(ToolkitError):
    """A sieve or search limit exceeds the exactness cap of the 4-byte table."""


class UnsupportedFormat(ToolkitError):
    """The requested serialization format is not defined for this object."""


class VerificationFailed(ToolkitError):
    """An independent re-check rejected a result the fast path produced."""


class FactorBudgetExceeded(ToolkitError):
    """Brent rho spent its step budget on a cofactor without splitting it."""
