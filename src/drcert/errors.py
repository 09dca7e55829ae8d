"""Exception types, one per CLI exit code.  Library argument checks raise a
plain ``ValueError``; outside input becomes one of these where it is read."""


class DrcertError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(DrcertError, ValueError):
    """Bad CLI configuration (exit code 2)."""


class DataError(DrcertError, ValueError):
    """Bad input data (exit code 3)."""


class DivergenceError(DrcertError, ArithmeticError):
    """Training produced non-finite values (exit code 4)."""
