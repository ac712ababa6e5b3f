"""Exception types shared across the library."""


class QOrderError(Exception):
    """Base class for all qorder-specific errors."""


class NonPrimeError(QOrderError, ValueError):
    """The requested field characteristic is not a prime number."""


class SizeExceededError(QOrderError):
    """A field, enumeration, or divisor lattice exceeds the configured size bound,
    or an integer the range where primality is decided exactly."""


class ZeroConstantTermError(QOrderError, ValueError):
    """The polynomial is divisible by x, so its monic reciprocal is undefined."""


class NotMonicError(QOrderError, ValueError):
    """The operation requires a monic polynomial."""


class DegreeTooLargeError(QOrderError, ValueError):
    """The polynomial degree exceeds the operation's limit."""


class FieldMismatchError(QOrderError, TypeError):
    """Operands belong to different fields or towers."""


class ZeroElementError(QOrderError, ValueError):
    """The operation is undefined for the zero element."""


class ParseError(QOrderError, ValueError):
    """Polynomial or element text could not be parsed."""


class PrimitiveNormalNotFoundError(QOrderError):
    """No element is simultaneously primitive and normal.

    Such an element exists in every finite extension, so this error firing
    means the arithmetic itself is broken; callers should not catch it.
    """
