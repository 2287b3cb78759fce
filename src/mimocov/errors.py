"""Exception types shared across the package.

Three classes, and the command line maps each error class to one exit
code.  Every error is a ``MimocovError`` of one of two kinds: a
``ValidationError`` (exit 2) is an input, option or configuration the
package refuses, a ``NumericalError`` (exit 3) an evaluation that lost
its precision, overflowed, left [0, 1] or found no root.
"""


class MimocovError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MimocovError, ValueError):
    """A scenario, gain law, argument or configuration is refused."""


class NumericalError(MimocovError, RuntimeError):
    """An evaluation failed to converge, overflowed or lost its precision."""
