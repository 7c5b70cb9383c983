"""Exception types shared across the toolkit.

The CLI maps these classes onto distinct exit codes, so library code should
raise the most specific one that applies.
"""

__all__ = ["MorcalError", "ConfigError", "DataError", "NumericError"]


class MorcalError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MorcalError):
    """Invalid configuration file, key, or parameter value."""


class DataError(MorcalError):
    """Malformed or inconsistent data: files, shapes, alignment."""


class NumericError(MorcalError):
    """Numerical failure: instability, singularity, or invalid domain."""
