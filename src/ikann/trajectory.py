"""Reference paths and closed-loop tracking evaluation.

A model proposes joint angles for each reference point; forward kinematics
maps them back to Cartesian space and the per-point Euclidean miss in mm is
the tracking error. The two reference paths, a rectangle pair inset in the
workspace box and a heart, are drawn from fixed constants, which each path
lists in its ``params`` for the report metadata; :func:`make_path` builds
either one by its kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import warn_caller
from .kinematics import DEFAULT_GEOMETRY, RobotGeometry, _solve_rows, forward_kinematics_batch
from .neuralnet import NetworkParams, predict
from .sampler import DEFAULT_BOX, WorkspaceBox, normalize_input

RECTANGLE = "rectangle"
HEART = "heart"


class PathOutsideBoxWarning(UserWarning):
    pass


@dataclass(frozen=True)
class TrajectorySpec:
    points: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("a trajectory needs at least 2 points of 3 coordinates")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class EvalReport:
    mean_mm: float
    std_mm: float
    max_mm: float
    n_points: int

    @classmethod
    def from_errors(cls, err: np.ndarray) -> "EvalReport":
        """Aggregate per-point tracking errors in mm."""
        return cls(mean_mm=float(err.mean()), std_mm=float(err.std()),
                   max_mm=float(err.max()), n_points=len(err))


def make_rectangle_path(box: WorkspaceBox) -> TrajectorySpec:
    """Two axis-aligned rectangles in the x1-x2 plane, inset by a 10 mm margin
    from the box walls, drawn at heights z_low = 10 and z_high = 50 mm.

    Each edge carries 26 uniform samples with shared corners counted once, so
    the total is 2*4*(26 - 1) = 200 points.
    """
    z_low, z_high, margin, points_per_edge = 10.0, 50.0, 10.0, 26
    x1a, x1b = box.lo[0] + margin, box.hi[0] - margin
    x2a, x2b = box.lo[1] + margin, box.hi[1] - margin
    if not (x1a < x1b and x2a < x2b):
        raise ValueError("margin leaves no rectangle area")
    corners = np.array([[x1a, x2a], [x1b, x2a], [x1b, x2b], [x1a, x2b]])

    ring = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        # drop the end corner; it opens the next edge
        seg = np.linspace(a, b, points_per_edge)[:-1]
        ring.append(seg)
    ring = np.vstack(ring)

    pts = np.vstack([
        np.column_stack([ring, np.full(len(ring), z_low)]),
        np.column_stack([ring, np.full(len(ring), z_high)]),
    ])
    return TrajectorySpec(points=pts, params={
        "z_low": z_low, "z_high": z_high, "margin": margin,
        "points_per_edge": points_per_edge,
    })


def make_heart_path() -> TrajectorySpec:
    """Classic parametric heart in the x1-x2 plane at height z = 30 mm:

        x1(t) = cx + scale * 16 sin^3(t) / 16
        x2(t) = cy + scale * (13 cos t - 5 cos 2t - 2 cos 3t - cos 4t) / 16

    with center (cx, cy) = (50, 50) mm, scale 25 mm and n_points = 200 values
    of t uniform on [0, 2*pi).
    """
    (cx, cy), scale, z, n_points = (50.0, 50.0), 25.0, 30.0, 200
    t = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    x1 = cx + scale * 16.0 * np.sin(t) ** 3 / 16.0
    x2 = cy + scale * (13.0 * np.cos(t) - 5.0 * np.cos(2 * t)
                       - 2.0 * np.cos(3 * t) - np.cos(4 * t)) / 16.0
    pts = np.column_stack([x1, x2, np.full(n_points, z)])
    return TrajectorySpec(points=pts, params={
        "center": (cx, cy), "scale": scale, "z": z, "n_points": n_points,
    })


def make_path(kind: str, box: WorkspaceBox) -> TrajectorySpec:
    """The reference path of ``kind``: RECTANGLE inset in ``box``, or HEART."""
    if kind == RECTANGLE:
        return make_rectangle_path(box)
    if kind == HEART:
        return make_heart_path()
    raise ValueError(f"unknown path kind {kind!r}")


def exact_ik_model(geom: RobotGeometry = DEFAULT_GEOMETRY):
    """Oracle predictor: analytic IK of a point set (mm in, rad out), with
    the bits ``inverse_kinematics`` gives each point; a set with a bad point
    raises that point's own error, for the first one."""

    def solve(points_mm: np.ndarray) -> np.ndarray:
        return _solve_rows(np.atleast_2d(np.asarray(points_mm, dtype=float)), geom)

    return solve


def tracking_details(model, traj: TrajectorySpec, geom: RobotGeometry, box: WorkspaceBox):
    """Per-point tracking data: (replayed positions, errors in mm).

    ``model`` is either trained NetworkParams (inputs get box-normalized) or a
    callable taking raw mm points and returning joint angles.
    """
    pts = traj.points
    outside = int(np.count_nonzero(~box.contains(pts)))
    if outside:
        warn_caller(f"{outside} of {len(pts)} path points lie outside the workspace box",
                    PathOutsideBoxWarning)
    if isinstance(model, NetworkParams):
        q_hat = predict(model, normalize_input(pts, box))
    else:
        q_hat = np.asarray(model(pts), dtype=float)
    x_hat = forward_kinematics_batch(q_hat, geom)
    err = np.linalg.norm(pts - x_hat, axis=1)
    return x_hat, err


def evaluate_tracking(model, traj: TrajectorySpec,
                      geom: RobotGeometry = DEFAULT_GEOMETRY,
                      box: WorkspaceBox = DEFAULT_BOX) -> EvalReport:
    """Run the reference path through the model and FK replay; aggregate the
    per-point Euclidean errors in mm."""
    _, err = tracking_details(model, traj, geom, box)
    return EvalReport.from_errors(err)
