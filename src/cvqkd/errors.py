"""Exception types shared across the package, and its one warning rule.

Every error raised by this package derives from CvqkdError, so callers can
catch one base class at an API boundary (the command line driver does this
to map failures to exit code 1). Every warning is issued by _warn, which
names the first line outside the library modules.
"""

import sys
import warnings

#: modules whose frames a warning skips; the command line front end is not one
_LIBRARY_MODULES = frozenset({"cvqkd.gaussian", "cvqkd.noise", "cvqkd.keyrate", "cvqkd.tomography"})


def _warn(message: str) -> None:
    """warnings.warn(message) at the first frame outside the library modules:
    the user's line, or the line of the command line front end that called in.
    Frames are told apart by module name, so the dataclass-generated
    __init__ of a library class is skipped too."""
    frame, stacklevel = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") in _LIBRARY_MODULES:
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, stacklevel=stacklevel)


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
