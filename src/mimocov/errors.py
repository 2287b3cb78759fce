"""Exception types shared across the package."""


class MimocovError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MimocovError, ValueError):
    """A scenario, gain law, or configuration parameter violates an invariant."""


class ConfigurationError(ValidationError):
    """A runtime configuration is unusable (for example a Monte Carlo window
    so small that empty realizations dominate)."""


class DomainError(MimocovError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedConfigError(MimocovError, ValueError):
    """The requested combination of options has no analytic form here."""


class NumericalError(MimocovError, RuntimeError):
    """An iterative numerical method failed to converge or overflowed."""


class CoverageRangeError(NumericalError):
    """A computed probability fell outside [0, 1]."""


class RootNotFoundError(NumericalError):
    """Bracketing failed to produce a sign change for a root search."""
