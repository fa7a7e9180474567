"""Exception and warning types shared across the package."""


class PmsfmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(PmsfmError, ValueError):
    """Array dimensions disagree with what the operation requires."""


class ValidationError(PmsfmError, ValueError):
    """A value violates a type invariant (non-finite, out of range, ...)."""


class EmptyDomainError(PmsfmError, ValueError):
    """An operation that needs at least one valid pixel received none."""


class DegenerateScaleError(PmsfmError, ValueError):
    """A normalization factor is zero or non-finite."""


class BehindCameraError(PmsfmError, ValueError):
    """Projection requested for a point with non-positive depth."""


class InsufficientDataError(PmsfmError, RuntimeError):
    """Too few usable points/frames/pairs to attempt the computation."""


class NoPoseFoundError(PmsfmError, RuntimeError):
    """RANSAC exhausted its budget without a consensus set."""


class DisconnectedGraphError(PmsfmError, RuntimeError):
    """The pose graph splits into several measured components.

    `components` lists the vertex sets of each component with at least
    one edge.
    """

    def __init__(self, message: str, components=None):
        super().__init__(message)
        self.components = components or []


class AlignmentError(PmsfmError, RuntimeError):
    """Too few recovered frames to fix the gauge between trajectories."""


class FormatError(PmsfmError, ValueError):
    """A serialized file is malformed. `offset` is the byte offset at
    which the problem was detected (for binary formats)."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(PmsfmError, ValueError):
    """A pipeline configuration value or file is invalid."""


class ConvergenceWarning(UserWarning):
    """An iterative solver hit its iteration budget; the best iterate is used."""
