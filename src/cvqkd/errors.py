"""Exception types shared across the package.

Every error raised by this package derives from CvqkdError, so callers can
catch one base class at an API boundary (the command line driver does this
to map failures to exit code 1).
"""


class CvqkdError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(CvqkdError, ValueError):
    """An argument is outside its documented domain."""


class InvalidStateError(CvqkdError, ValueError):
    """A covariance matrix is structurally unusable for the requested step."""


class NumericalDegeneracyError(CvqkdError, ArithmeticError):
    """A radicand or squared symplectic eigenvalue is negative beyond rounding.

    Negatives within the tolerance rule of gaussian.DEGENERACY_SNAP are
    clamped to zero; anything larger indicates a genuinely degenerate or
    corrupted input and is reported through this error instead.
    """


class FormulaDomainError(CvqkdError, ArithmeticError):
    """An invariant-form expression left its real domain.

    Signals an unphysical or pathological input rather than a rounding issue;
    the message names the quantity and how far it is below its floor.
    """


class DegenerateBoxError(CvqkdError):
    """No physical matrix was found in a finite-sample uncertainty box.

    Unreachable for physical inputs (one corner of the box is always
    physical, see worst_case_key_rate), kept as a defensive guard for callers
    that bypass the physicality check. The message names the sample count.
    """


class ProtocolIncompleteError(CvqkdError):
    """A dataset does not determine all covariance entries."""


class CalibrationError(CvqkdError):
    """A vacuum calibration variance is missing or not positive."""


class DatasetParseError(CvqkdError):
    """A dataset file is malformed. The message names the offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptyDatasetError(CvqkdError):
    """A dataset file contains no records."""


class ConfigError(CvqkdError):
    """A run configuration failed validation."""
