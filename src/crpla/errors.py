"""Exception hierarchy shared across the package.

Two broad families matter to callers: configuration/validation problems
(bad inputs, exit code 1 in the CLI) and numeric failures (domain or
inversion breakdown, exit code 2).
"""


class CrplaError(Exception):
    """Base class for all package errors."""


class ValidationError(CrplaError):
    """Base class for parameter and configuration validation failures."""


class InvalidPilotCount(ValidationError):
    """alpha * n is not an integer, or the pilot count is out of range."""


class InvalidRange(ValidationError):
    """Channel amplitude bounds are inconsistent (h_min > h_max, negative, non-finite)."""


class InvalidProbability(ValidationError):
    """A probability argument lies outside its admissible interval."""


class NonPositiveSnr(ValidationError):
    """An SNR scale that must be strictly positive is not."""


class ConfigParseError(ValidationError):
    """A JSON configuration file is malformed or violates the schema."""


class NumericError(CrplaError):
    """Base class for numerical-kernel failures."""


class DomainError(NumericError):
    """Argument outside the mathematical domain of a special function."""


class ConvergenceError(NumericError):
    """An iterative numerical procedure failed to reach its tolerance."""
