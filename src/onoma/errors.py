"""Exception types shared across the package."""


class OnomaError(Exception):
    """Base class for package-specific failures."""


class InputFormatError(OnomaError):
    """An input file does not conform to its documented format."""


class SurnameError(OnomaError, ValueError):
    """A surname cannot be split into n-grams: it is empty or holds a marker.

    `dataset` names the population it came from when a stage over several
    populations raised it.
    """

    dataset: str | None = None


class ConfigError(OnomaError):
    """A configuration value is out of range or inconsistent."""


class InvariantError(OnomaError):
    """An internal consistency check failed."""
