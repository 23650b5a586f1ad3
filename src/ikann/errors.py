"""Exception types shared across the package, and the one way it warns.

Every exception here is built from its message alone, so it pickles as it
is and crosses ``neuralnet.train_lockstep``'s fork pipe unchanged."""

import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_caller(message, category):
    """Warn with the source set to the first caller outside this package, so
    that a library user sees the line of their own code that led here."""
    level, frame = 2, sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, category, stacklevel=level)


class IkannError(Exception):
    """Base class for all package-specific errors."""


class UnreachableTarget(IkannError):
    """Requested Cartesian point lies outside the arm's workspace."""


class DegenerateAxis(IkannError):
    """Point lies on the base axis; the yaw angle is undefined."""


class UnreachableGridPoint(IkannError):
    """A training-grid point is not reachable by the arm; the message names
    the point's grid index and coordinates."""


class NotACube(IkannError):
    """Sample count has no integer cube root."""


class NonFiniteLoss(IkannError):
    """Training loss became NaN or Inf; the run diverged."""


class InsufficientData(IkannError):
    """Not enough distinct sample counts to fit a convergence rate."""
