"""Exception types shared across the package."""


class LcdringError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimeError(LcdringError):
    """Field characteristic is not a prime number."""


class BadModulusError(LcdringError):
    """Modulus polynomial has the wrong shape or is reducible."""


class NotSquareError(LcdringError):
    """Operation requires a square matrix."""


class MismatchError(LcdringError):
    """Operands disagree on field, length, or shape."""


class BadLError(LcdringError):
    """Galois parameter l is outside the valid range."""


class ZeroCodeError(LcdringError):
    """The zero code has no minimum distance."""


class CapExceededError(LcdringError):
    """Enumeration or search would exceed the configured budget."""


class ZeroScaleError(LcdringError):
    """Column scaling vectors must be nonzero everywhere."""


class NotAUnitError(LcdringError):
    """Ring element with a zero coordinate cannot be inverted."""


class SupportMismatchError(LcdringError):
    """Perturbation vector support differs from the certified index set."""


class FieldTooSmallError(LcdringError):
    """The construction needs more field elements than q provides."""


class ParseError(LcdringError):
    """Code file is malformed."""


class ConsistencyError(LcdringError):
    """An internal cross-check failed; indicates a bug."""
