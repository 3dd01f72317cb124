"""Exception types shared across the package."""


class WceLabError(Exception):
    """Base class for all package-specific errors."""


class NotNormalError(WceLabError):
    """A normal-only routine received a non-normal operator."""


class ConfigInvalidError(WceLabError):
    """Generator configuration out of range."""


class ParseError(WceLabError):
    """Malformed instance document; the message names the offending
    field or blocks."""
