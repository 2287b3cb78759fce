"""Exception types shared across the package.

Every error is a ``MimocovError`` of one of two kinds, and the command
line maps each kind to one exit code: a ``ValidationError`` (exit 2) is
an input or option the package refuses, a ``NumericalError`` (exit 3) an
evaluation that lost its precision or overflowed.
"""


class MimocovError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MimocovError, ValueError):
    """A scenario, gain law, argument or configuration parameter violates an invariant."""


class ConfigurationError(ValidationError):
    """A runtime configuration is unusable (for example a Monte Carlo window
    so small that empty realizations dominate)."""


class UnsupportedConfigError(ValidationError):
    """The requested combination of options has no analytic form here."""


class NumericalError(MimocovError, RuntimeError):
    """An evaluation failed to converge, overflowed or lost its precision."""


class CoverageRangeError(NumericalError):
    """A computed probability fell outside [0, 1]."""


class RootNotFoundError(NumericalError):
    """Bracketing failed to produce a sign change for a root search."""
