"""Exception types shared across the package."""


class GgmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GgmError, ValueError):
    """An argument violates a documented precondition."""


class NumericalError(GgmError, ArithmeticError):
    """A numerical operation failed (singular factor, diverging iterates)."""


class DegenerateInput(GgmError, ValueError):
    """Input is structurally valid but degenerate for the requested metric."""


class ConfigError(GgmError, ValueError):
    """An experiment configuration is inconsistent or incomplete."""


class ParseError(GgmError, ValueError):
    """A text input could not be parsed; carries the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message + (f" (line {line})" if line is not None else ""))
