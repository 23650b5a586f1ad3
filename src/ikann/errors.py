"""Exception types shared across the package."""


class IkannError(Exception):
    """Base class for all package-specific errors."""


class UnreachableTarget(IkannError):
    """Requested Cartesian point lies outside the arm's workspace."""


class DegenerateAxis(IkannError):
    """Point lies on the base axis; the yaw angle is undefined."""


class UnreachableGridPoint(IkannError):
    """A training-grid point is not reachable by the arm."""

    def __init__(self, index, point):
        self.index = index
        self.point = point
        super().__init__(f"grid point {index} at {tuple(map(float, point))} mm is unreachable")


class NotACube(IkannError):
    """Sample count has no integer cube root."""


class NonFiniteLoss(IkannError):
    """Training loss became NaN or Inf; the run diverged."""


class InsufficientData(IkannError):
    """Not enough distinct sample counts to fit a convergence rate."""
