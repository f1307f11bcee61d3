"""Exception hierarchy shared by every module.

The CLI maps these onto exit codes: UnsupportedInputError and plain
ValueError become exit 2, NotCoveredError exit 3, CertificationError and
SaturationError exit 4.
"""


class CliffcompError(Exception):
    """Base class for engine errors."""


class InputTooLargeError(CliffcompError):
    """An exact computation would exceed the configured size bound."""


class UnsupportedInputError(CliffcompError):
    """The input is outside the engine's documented domain."""


class CertificationError(CliffcompError):
    """A result failed its correctness certificate."""


class SaturationError(CertificationError):
    """A tensor-algebra quotient did not certify at its saturation degree."""


class NotCoveredError(CliffcompError):
    """The requested configuration is outside the covered case list."""
