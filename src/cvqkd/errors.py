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

    A corner is physical when the single-state formula would rate it. At
    n = inf the box is the state itself, rated with its own invariants, so
    only unphysical inputs, or a box so wide that no corner is a state, can
    reach this. The message names the sample count.
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
