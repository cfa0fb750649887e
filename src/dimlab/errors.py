"""Exception types shared across the package.

Plain ``ValueError`` is used for argument/range violations; the classes here
cover failure modes that callers are expected to branch on.  The CLI maps
ResourceLimitError to exit code 3, HypothesisError to 1, and
SpecValidationError and FormatError, which are ValueErrors, to 2.
"""


class DimLabError(Exception):
    """Base class for package-specific failures."""


class SpecValidationError(DimLabError, ValueError):
    """A generator spec is malformed or infeasible."""


class ZeroMassError(DimLabError):
    """Conditioning on a zero-mass vertex."""


class HypothesisError(DimLabError):
    """A lemma hypothesis failed at a specific vertex; carries the vertex."""

    def __init__(self, message: str, level: int | None = None, index: int | None = None):
        super().__init__(message)
        self.level = level
        self.index = index


class MeasureInvariantError(DimLabError):
    """Mass data violates the child-sum or total-mass invariant."""


class FormatError(DimLabError, ValueError):
    """On-disk data does not parse as a known format."""


class ResourceLimitError(DimLabError):
    """A cell/pair budget would be exceeded."""
