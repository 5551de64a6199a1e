"""Exception hierarchy shared across the toolkit.

The command line's exit code follows the class: ArgumentError and
FormatError (bad usage or input) exit 2, any other ToolkitError exits 3.
"""

__all__ = [
    "ToolkitError", "FormatError", "ArgumentError", "GridError", "FitError",
    "InconsistencyError", "NonphysicalGrowthError", "ResolutionError",
]


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ToolkitError):
    """Input text or bytes could not be parsed.

    Carries an optional 1-based line number for file formats.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ArgumentError(ToolkitError):
    """A function argument violated its documented precondition."""


class GridError(ToolkitError):
    """A frequency or time grid does not meet a uniformity requirement."""


class FitError(ToolkitError):
    """A fit failed to converge or the data admits no meaningful fit.

    The partially converged result, when one exists, is attached as
    ``result`` for diagnostics.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InconsistencyError(ToolkitError):
    """Derived quantities violate a physical constraint (range or sign)."""


class NonphysicalGrowthError(InconsistencyError):
    """An echo train grows with echo index, which no passive device can do."""


class ResolutionError(ToolkitError):
    """The time resolution of a transform is too coarse for the request."""
