"""Analytic forward and inverse kinematics for a 3-DOF articulated (RRR) arm.

Joint convention: q1 is the base yaw, q2 the shoulder pitch measured from the
horizontal plane, q3 the elbow pitch relative to the upper arm. The shoulder
sits at height l1 above the base. With planar radius

    r = l2*cos(q2) + l3*cos(q2 + q3)

the tip position is

    x1 = r*cos(q1),  x2 = r*sin(q1),  x3 = l1 + l2*sin(q2) + l3*sin(q2 + q3).

The closed-form inverse has two elbow solutions; branch "A" (the default)
takes q3 <= 0, branch "B" the mirror.

``_solve`` is the one reach rule of the package: ``inverse_kinematics``,
the training grid (``sampler.generate_grid``) and the exact-IK model
(``trajectory.exact_ik_model``) all label points through it, one point of
Python floats at a time. It stays scalar ``math`` on purpose: ``np.arctan2``
and ``np.hypot`` differ from ``math.atan2`` and ``math.hypot`` in the last
bit for some inputs, so a vectorised solve would change the labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxis, UnreachableTarget

ELBOW_A = "A"
ELBOW_B = "B"

# |D| may exceed 1 by rounding noise at full extension; beyond this it is a
# genuinely unreachable target.
_REACH_TOL = 1e-12
_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class RobotGeometry:
    """Link lengths in mm and the elbow branch used by the inverse solver."""

    l1: float = 70.0
    l2: float = 70.0
    l3: float = 70.0
    elbow_branch: str = ELBOW_A

    def __post_init__(self):
        # written so that NaN fails too
        if not all(0.0 < v < math.inf for v in (self.l1, self.l2, self.l3)):
            raise ValueError("link lengths must be positive and finite")
        # _solve squares l2 and l3 and divides by 2 * l2 * l3
        l2, l3 = self.l2, self.l3
        if not (math.isfinite(l2 * l2) and math.isfinite(l3 * l3)) or 2.0 * l2 * l3 == 0.0:
            raise ValueError("link lengths l2 and l3 are too large or too small for float64 IK")
        if self.elbow_branch not in (ELBOW_A, ELBOW_B):
            raise ValueError(f"elbow_branch must be {ELBOW_A!r} or {ELBOW_B!r}")


DEFAULT_GEOMETRY = RobotGeometry()


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.remainder(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


def forward_kinematics_batch(q: np.ndarray, geom: RobotGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """Vectorized forward kinematics for an (N, 3) array of joint angles."""
    q = np.asarray(q, dtype=float)
    r = geom.l2 * np.cos(q[:, 1]) + geom.l3 * np.cos(q[:, 1] + q[:, 2])
    return np.column_stack([
        r * np.cos(q[:, 0]),
        r * np.sin(q[:, 0]),
        geom.l1 + geom.l2 * np.sin(q[:, 1]) + geom.l3 * np.sin(q[:, 1] + q[:, 2]),
    ])


def inverse_kinematics(x, geom: RobotGeometry = DEFAULT_GEOMETRY) -> np.ndarray:
    """Joint angles realizing tip position ``x`` in mm.

    It raises UnreachableTarget when no elbow angle places the tip at ``x``
    (|D| beyond 1 by more than rounding noise, or a non-finite coordinate),
    and DegenerateAxis on the base axis (x1 = x2 = 0), where the yaw is
    undefined.
    """
    return np.array(_solve(float(x[0]), float(x[1]), float(x[2]), geom))


def _solve(x1: float, x2: float, x3: float, geom: RobotGeometry) -> tuple:
    """``inverse_kinematics`` of one point given as Python floats, as a tuple."""
    r = math.hypot(x1, x2)
    if r < _AXIS_TOL:
        raise DegenerateAxis(f"({x1}, {x2}, {x3}) lies on the base axis")
    s = x3 - geom.l1
    l2, l3 = geom.l2, geom.l3
    d = (r * r + s * s - l2 ** 2 - l3 ** 2) / (2.0 * l2 * l3)
    # written so that NaN fails too
    if not abs(d) <= 1.0 + _REACH_TOL:
        raise UnreachableTarget(f"({x1}, {x2}, {x3}) is outside the workspace (D={d:.6g})")
    d = 1.0 if d > 1.0 else -1.0 if d < -1.0 else d   # min/max calls cost 0.3 us more
    root = math.sqrt(1.0 - d * d)
    q3 = math.atan2(-root if geom.elbow_branch == ELBOW_A else root, d)
    q1 = math.atan2(x2, x1)
    q2 = math.atan2(s, r) - math.atan2(l3 * math.sin(q3), l2 + l3 * math.cos(q3))
    return q1, wrap_angle(q2), q3
