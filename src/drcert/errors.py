"""Exception types shared across the toolkit."""


class DrcertError(Exception):
    """Base class for all toolkit errors."""


class EmptyInputError(DrcertError, ValueError):
    pass


class NegativeBudgetError(DrcertError, ValueError):
    pass


class InvalidExponentError(DrcertError, ValueError):
    pass


class UnknownActivationError(DrcertError, ValueError):
    pass


class UnboundedOutputError(DrcertError, ValueError):
    pass


class InvalidScoreError(DrcertError, ValueError):
    pass


class DimMismatchError(DrcertError, ValueError):
    pass


class DivergenceError(DrcertError, ArithmeticError):
    """Training produced non-finite values."""


class ParseError(DrcertError, ValueError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RangeError(DrcertError, ValueError):
    pass


class ConfigError(DrcertError, ValueError):
    """Bad CLI configuration (exit code 2)."""


class DataError(DrcertError, ValueError):
    """Bad input data (exit code 3)."""


class InstanceTooLargeError(DataError):
    """Instance beyond an advertised size limit (exit code 3)."""
