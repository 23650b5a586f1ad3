"""Analytic forward and inverse kinematics for a 3-DOF articulated (RRR) arm.

Joint convention: q1 is the base yaw, q2 the shoulder pitch measured from the
horizontal plane, q3 the elbow pitch relative to the upper arm. The shoulder
sits at height l1 above the base. With planar radius

    r = l2*cos(q2) + l3*cos(q2 + q3)

the tip position is

    x1 = r*cos(q1),  x2 = r*sin(q1),  x3 = l1 + l2*sin(q2) + l3*sin(q2 + q3).

The closed-form inverse has two elbow solutions; branch "A" (the default)
takes q3 <= 0, branch "B" the mirror.

``_solve`` is the one reach rule and the one closed-form inverse of the
package. ``inverse_kinematics`` calls it on one point of Python floats, and
``_solve_rows`` on the float64 columns of a point set; the training grid
(``sampler.generate_grid``) and the exact-IK model
(``trajectory.exact_ik_model``) label through the columns form. Both forms
give each point the same bits. In the columns form, addition, subtraction,
multiplication, division, the square root and the clamp of D are numpy array
operations, because IEEE 754 rounds each of them exactly, as it rounds Python
floats. ``hypot``, ``atan2``, ``sin`` and ``cos`` are not correctly rounded,
and numpy's ``hypot`` and ``arctan2`` differ from libm's in the last bit for
some inputs; numpy has no IEEE ``remainder``. So these five are libm's
``math`` functions, mapped over the columns' Python floats, which keeps the
per-point loop in C.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxis, UnreachableTarget

ELBOW_A = "A"
ELBOW_B = "B"

# |D| may exceed 1 by rounding noise at full extension; beyond this it is a
# genuinely unreachable target.
_D_MAX = 1.0 + 1e-12
_AXIS_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


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
    a = math.remainder(a, _TWO_PI)
    if a <= -math.pi:
        a += _TWO_PI
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
    return np.array(_solve(float(x[0]), float(x[1]), float(x[2]), geom, _POINT))


def _solve(x1, x2, x3, geom: RobotGeometry, form) -> tuple:
    """The closed-form inverse as a tuple (q1, q2, q3), of one point of
    Python floats (``form`` is ``_POINT``) or of float64 columns (``_ROWS``)."""
    hypot, atan2, sin, cos, sqrt, wrap = form
    r = hypot(x1, x2)
    s = x3 - geom.l1
    l2, l3 = geom.l2, geom.l3
    d = (r * r + s * s - l2 ** 2 - l3 ** 2) / (2.0 * l2 * l3)
    if form is _ROWS:
        d = _reach_rows(x1, x2, x3, r, d, geom)
    # the reach rule of one point, inline because a call costs it 0.1 us: the
    # base axis fails first, then |D| beyond 1 by more than rounding noise
    elif r < _AXIS_TOL:
        raise DegenerateAxis(f"({x1}, {x2}, {x3}) lies on the base axis")
    elif not -_D_MAX <= d <= _D_MAX:   # written so that NaN fails too
        raise UnreachableTarget(f"({x1}, {x2}, {x3}) is outside the workspace (D={d:.6g})")
    else:
        d = 1.0 if d > 1.0 else -1.0 if d < -1.0 else d   # min/max calls cost 0.3 us more
    root = sqrt(1.0 - d * d)
    q3 = atan2(-root if geom.elbow_branch == ELBOW_A else root, d)
    q1 = atan2(x2, x1)
    q2 = atan2(s, r) - atan2(l3 * sin(q3), l2 + l3 * cos(q3))
    return q1, wrap(q2), q3


# The functions _solve calls, (hypot, atan2, sin, cos, sqrt, wrap_angle), as a
# plain tuple: its unpacking is cheaper than attribute calls on an object.
_POINT = (math.hypot, math.atan2, math.sin, math.cos, math.sqrt, wrap_angle)


def _mapped(f):
    """libm's ``f`` over float64 columns, one C-level ``map`` of it."""
    def over_rows(*cols):
        return np.fromiter(map(f, *(c.tolist() for c in cols)), float, len(cols[0]))
    return over_rows


def _reach_rows(x1, x2, x3, r, d, geom):
    """``_solve``'s reach rule over columns, then D clamped to [-1, 1]. A set
    with a bad row raises the error of its first bad row alone, with that
    row's index as ``row``."""
    bad = (r < _AXIS_TOL) | ~(np.abs(d) <= _D_MAX)
    if bad.any():
        row = int(bad.argmax())
        try:
            _solve(x1[row].item(), x2[row].item(), x3[row].item(), geom, _POINT)
        except (DegenerateAxis, UnreachableTarget) as exc:
            exc.row = row
            raise
    return np.clip(d, -1.0, 1.0)


def _wrap_rows(a):
    """``wrap_angle`` of each entry of a float64 column."""
    a = np.fromiter(map(math.remainder, a.tolist(), itertools.repeat(_TWO_PI)), float, len(a))
    a[a <= -math.pi] += _TWO_PI
    return a


_ROWS = (*map(_mapped, (math.hypot, math.atan2, math.sin, math.cos)), np.sqrt, _wrap_rows)


def _solve_rows(points: np.ndarray, geom: RobotGeometry) -> np.ndarray:
    """``inverse_kinematics`` of each row of an (N, 3) float64 array, bit for
    bit, as an (N, 3) array. If a row fails, it raises that row's own error,
    for the first such row, with the row's index as the error's ``row``."""
    # Python floats overflow to inf silently; the columns must not warn either
    with np.errstate(all="ignore"):
        return np.column_stack(_solve(*points.T, geom, _ROWS))
