"""Exception types shared across the package."""


class WceLabError(Exception):
    """Base class for all package-specific errors."""


class EmptySpaceError(WceLabError):
    """A measure space was built with no points."""


class NonpositiveWeightError(WceLabError):
    """A point mass is zero, negative, or not finite."""


class NotAPartitionError(WceLabError):
    """Blocks overlap, leave a gap, or contain an empty block."""


class SpaceMismatchError(WceLabError):
    """Two objects built over different spaces were combined."""


class NotNormalError(WceLabError):
    """A normal-only routine received a non-normal operator."""


class ConfigInvalidError(WceLabError):
    """Generator configuration out of range."""


class ParseError(WceLabError):
    """Malformed instance document; the message names the offending
    field or blocks."""
