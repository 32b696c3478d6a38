"""Exception types shared across the package."""


class OnomaError(Exception):
    """Base class for package-specific failures."""


class InputFormatError(OnomaError):
    """An input file does not conform to its documented format."""


class SurnameError(OnomaError, ValueError):
    """A surname cannot be split into n-grams: it is empty or holds a marker.

    The command line checks population and corpus files by these rules
    before it writes anything, and reports one raised for a name of a
    file as an input error in that file.
    """


class ConfigError(OnomaError):
    """A configuration value is out of range or inconsistent."""


class InvariantError(OnomaError):
    """An internal consistency check failed."""
