"""Exception hierarchy shared across the package.

Each class carries the process exit code used by the command-line
driver (0 success, 2 validation, 3 numeric, 4 capacity).
"""

from contextlib import contextmanager


class FiberwalkError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(FiberwalkError):
    """Malformed input: bad file, bad config, violated precondition."""

    exit_code = 2


@contextmanager
def open_utf8(path, **kwargs):
    """``open(path)`` as UTF-8 text; a file that is not UTF-8 raises a ValidationError naming it."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


class ContractViolation(ValidationError):
    """An in-process API was called outside its contract."""


class ConfigError(ValidationError):
    """Run configuration is incomplete or inconsistent."""


class DecompositionError(ValidationError):
    """A decomposition strategy produced no usable sub-problem."""


class IncompatiblePolicyError(ValidationError):
    """A stored policy does not match the move basis it is applied to."""


class NumericError(FiberwalkError):
    """Non-finite value encountered during network or update arithmetic."""

    exit_code = 3


class FitError(NumericError):
    """Expected-count fitting failed to converge.

    The message gives the final max-norm distance between fitted and
    observed marginals when iteration stopped.
    """


class DegenerateDataError(NumericError):
    """Data admits no model fit (e.g. an all-zero table)."""


class SizingError(FiberwalkError):
    """Requested problem exceeds the configured size ceiling."""

    exit_code = 4


class OracleTooLargeError(FiberwalkError):
    """Exhaustive fiber enumeration exceeded its point cap."""

    exit_code = 4
