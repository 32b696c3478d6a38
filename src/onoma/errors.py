"""Exception types shared across the package."""


class OnomaError(Exception):
    """Base class for package-specific failures."""


class InputFormatError(OnomaError):
    """An input file does not conform to its documented format."""


class SurnameError(OnomaError, ValueError):
    """A surname that is empty or holds a marker, which `features.check_surnames`
    rejects; a reader reports it as an input error in its file."""


class ConfigError(OnomaError, ValueError):
    """A setting, or a field read from a file, of the wrong kind, out of
    range or inconsistent."""


class InvariantError(OnomaError):
    """An internal consistency check failed."""
