"""Exception and warning types shared across the package."""

import os
import sys
import warnings

_PACKAGE_PREFIX = os.path.dirname(__file__) + os.sep


def _warn(message: str, category: type[Warning]) -> None:
    """``warnings.warn`` at the first frame outside this package, so the
    warning names the caller's line whichever library path raised it."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class MertError(Exception):
    """Base class for all package errors."""


class DataError(MertError):
    """Invalid input data: geometry, forests, files, or configuration."""


class InvalidGeometryError(DataError):
    """Non-finite coordinates or a chain violating convexity/order invariants."""


class NoHypothesesError(DataError):
    """A forest or hull with no hypotheses where at least one is required."""


class CyclicForestError(DataError):
    """The forest admits no topological order."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


class DimensionMismatchError(DataError):
    """Feature/weight vector dimensions disagree."""


class ProvenanceError(DataError):
    """A hull point's provenance does not describe a derivation of this forest."""


class EnumerationOverflowError(DataError):
    """More derivations than the configured cap."""


class CapExceededError(DataError):
    """A brute-force oracle was asked to do more work than its cap allows."""


class ForestFormatError(DataError):
    """A forest document could not be parsed."""


class ConfigError(DataError):
    """Bad run configuration (unknown metric, out-of-range knob, ...)."""


class UsageError(MertError):
    """Command-line usage error."""


class DegenerateDirectionWarning(UserWarning):
    """Search direction is the zero vector; the line search cannot move."""


class MissingFeatureWarning(UserWarning):
    """Corpus features absent from a weight/direction map default to 0.0."""


class UnknownFeatureWarning(UserWarning):
    """A weight/direction map names features the corpus never uses."""
