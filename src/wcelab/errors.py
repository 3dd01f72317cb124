"""Exception types shared across the package."""


class WceLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalidError(WceLabError):
    """Generator configuration out of range."""


class ParseError(WceLabError):
    """Malformed instance document; the message names the offending
    field or blocks."""
