"""Evenly spaced Cartesian training grids with inverse-kinematics labels.

A grid point is in reach exactly when ``inverse_kinematics`` labels it: the
grid feeds each point, as Python floats, to the same scalar core
(``kinematics._solve``) and applies no reach test of its own. The loop stays
scalar ``math``, since a vectorised numpy solve differs in the last bits of
some labels. Inputs are normalized to [0, 1] per axis using the box bounds
(not the data); joint-angle outputs stay in raw radians.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxis, NotACube, UnreachableGridPoint, UnreachableTarget
from .kinematics import DEFAULT_GEOMETRY, RobotGeometry, _solve, forward_kinematics_batch

# FK(IK(X)) must reproduce every grid point to this accuracy, else the
# labelling is considered broken.
_LABEL_TOL_MM = 1e-9


@dataclass(frozen=True)
class WorkspaceBox:
    """Axis-aligned Cartesian box in mm; lo/hi are the per-axis bounds."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != (3,) or self.hi.shape != (3,):
            raise ValueError("box bounds must be 3-vectors")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("box bounds must be finite")
        if not np.all(self.lo < self.hi):
            raise ValueError("box must satisfy lo < hi on every axis")

    @property
    def span(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)


DEFAULT_BOX = WorkspaceBox(lo=np.array([20.0, 20.0, 0.0]), hi=np.array([80.0, 80.0, 60.0]))


@dataclass(frozen=True)
class TrainingSet:
    """Grid dataset: n = k^3 Cartesian points (mm) with joint labels (rad)."""

    points: np.ndarray
    angles: np.ndarray
    box: WorkspaceBox

    @property
    def n(self) -> int:
        return self.points.shape[0]


def generate_grid(box: WorkspaceBox, k: int, geom: RobotGeometry = DEFAULT_GEOMETRY) -> TrainingSet:
    """Build the k^3 training grid over ``box`` with IK labels.

    Points are ordered row-major (x1 slowest, x3 fastest). Raises
    UnreachableGridPoint for the first point that inverse kinematics cannot
    reach, and DegenerateAxis naming the first point on the base axis.
    """
    if k < 2:
        raise ValueError("need at least 2 samples per axis")
    axes = [np.linspace(box.lo[i], box.hi[i], k) for i in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    def labels():
        # the rows of ``points``, in order, as tuples of Python floats
        for idx, p in enumerate(itertools.product(*(a.tolist() for a in axes))):
            try:
                yield _solve(*p, geom)
            except UnreachableTarget:
                raise UnreachableGridPoint(f"grid point {idx} at {p} mm is unreachable") from None
            except DegenerateAxis:
                raise DegenerateAxis(f"grid point {idx} at {p} mm lies on the base axis") from None

    angles = np.fromiter(labels(), dtype=(float, 3), count=len(points))
    residual = np.linalg.norm(forward_kinematics_batch(angles, geom) - points, axis=1)
    worst = float(residual.max())
    if worst >= _LABEL_TOL_MM:
        raise RuntimeError(f"IK labelling failed round-trip check ({worst:.3g} mm)")
    return TrainingSet(points=points, angles=angles, box=box)


def normalize_input(x, box: WorkspaceBox) -> np.ndarray:
    """Map mm coordinates into box-relative [0, 1] units (linear, unclamped)."""
    return (np.asarray(x, dtype=float) - box.lo) / box.span


def exact_cube_root(n: int) -> int:
    """Integer k with k^3 == n, or NotACube."""
    if n < 1:
        raise NotACube(f"{n} is not a positive cube")
    k = round(n ** (1.0 / 3.0))
    for cand in (k - 1, k, k + 1):
        if cand >= 1 and cand ** 3 == n:
            return cand
    raise NotACube(f"{n} has no integer cube root")


def half_spacing_normalized(n: int) -> float:
    """Worst-case normalized distance from a test point to the nearest grid
    point: half the per-axis spacing of a k^3 grid on [0, 1]."""
    k = exact_cube_root(n)
    if k < 2:
        raise NotACube("need at least 2 samples per axis")
    return 0.5 * (1.0 - 0.0) / (k - 1)


def spacing_mm(box: WorkspaceBox, k: int) -> float:
    """Mean per-axis distance between adjacent grid samples, in mm."""
    if k < 2:
        raise ValueError("need at least 2 samples per axis")
    return float(np.mean(box.span / (k - 1)))
