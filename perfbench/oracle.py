"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ikann. Each function is written from the documented
definitions (the README, the module docstrings and the paper's closed form),
so a fault in the program cannot hide behind a copy of its own code.
"""

from __future__ import annotations

import json
import math

import numpy as np

LINKS_MM = (70.0, 70.0, 70.0)
BOX_LO = (20.0, 20.0, 0.0)
BOX_HI = (80.0, 80.0, 60.0)
BATCH_SIZE = 8
VAL_FRACTION = 0.05
TEST_FRACTION = 0.05


def fk(q, links=LINKS_MM) -> np.ndarray:
    """Tip positions (N, 3) in mm of the yaw-pitch-pitch arm for joint angles
    (N, 3) in rad: the shoulder sits l1 above the base, q2 is measured from
    the horizontal and q3 relative to the upper arm."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    l1, l2, l3 = links
    yaw, shoulder, elbow = q[:, 0], q[:, 1], q[:, 1] + q[:, 2]
    reach = l2 * np.cos(shoulder) + l3 * np.cos(elbow)
    height = l1 + l2 * np.sin(shoulder) + l3 * np.sin(elbow)
    return np.stack([reach * np.cos(yaw), reach * np.sin(yaw), height], axis=1)


def box_grid(k: int, lo=BOX_LO, hi=BOX_HI) -> np.ndarray:
    """The k^3 evenly spaced grid over the box, x1 slowest and x3 fastest."""
    axes = [[lo[i] + (hi[i] - lo[i]) * j / (k - 1) for j in range(k)] for i in range(3)]
    return np.array([(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]])


def spacing_mm(k: int, lo=BOX_LO, hi=BOX_HI) -> float:
    """Mean per-axis distance between adjacent grid samples."""
    return sum((hi[i] - lo[i]) / (k - 1) for i in range(3)) / 3.0


def split_sizes(n: int, val_fraction=VAL_FRACTION, test_fraction=TEST_FRACTION):
    """(train, val, test) sizes: val and test are round-half-up of
    fraction * n with a floor of one sample when the fraction is nonzero."""
    def size(frac):
        return max(1, math.floor(frac * n + 0.5)) if frac > 0 else 0
    val, test = size(val_fraction), size(test_fraction)
    return n - val - test, val, test


def steps_per_epoch(n_train: int, batch_size: int = BATCH_SIZE) -> int:
    """Adam updates in one epoch: one per (possibly short) mini-batch."""
    return -(-n_train // batch_size)


def closed_form_bound(k: int, w_bar: float) -> float:
    """The paper's worst-case normalized estimate (27 w^2 + 1) / (4 (k - 1)^2)."""
    return (27.0 * w_bar * w_bar + 1.0) / (4.0 * (k - 1) ** 2)


def est_bound_mm(k: int, w_bar: float, lo=BOX_LO, hi=BOX_HI) -> float:
    """The closed form rescaled by the mean box span."""
    return closed_form_bound(k, w_bar) * sum(hi[i] - lo[i] for i in range(3)) / 3.0


def rectangle_path(lo=BOX_LO, hi=BOX_HI, z_low=10.0, z_high=50.0, margin=10.0,
                   points_per_edge=26) -> np.ndarray:
    """Two rectangles inset by ``margin``, at z_low then z_high; each edge has
    ``points_per_edge`` samples with its end corner left to the next edge."""
    corners = [(lo[0] + margin, lo[1] + margin), (hi[0] - margin, lo[1] + margin),
               (hi[0] - margin, hi[1] - margin), (lo[0] + margin, hi[1] - margin)]
    ring = []
    for i in range(4):
        (ax, ay), (bx, by) = corners[i], corners[(i + 1) % 4]
        for j in range(points_per_edge - 1):
            t = j / (points_per_edge - 1)
            ring.append((ax + (bx - ax) * t, ay + (by - ay) * t))
    return np.array([(x, y, z) for z in (z_low, z_high) for x, y in ring])


def heart_path(center=(50.0, 50.0), scale=25.0, z=30.0, n_points=200) -> np.ndarray:
    """x1 = cx + scale sin^3 t, x2 = cy + scale (13 cos t - 5 cos 2t - 2 cos 3t
    - cos 4t) / 16, with t uniform on [0, 2 pi)."""
    pts = []
    for i in range(n_points):
        t = 2.0 * math.pi * i / n_points
        pts.append((center[0] + scale * math.sin(t) ** 3,
                    center[1] + scale * (13 * math.cos(t) - 5 * math.cos(2 * t)
                                         - 2 * math.cos(3 * t) - math.cos(4 * t)) / 16.0,
                    z))
    return np.array(pts)


class Model:
    """A network read straight from its model JSON (schema ik-ann-model/1)."""

    def __init__(self, doc: dict):
        self.w1 = np.array(doc["w1"], dtype=float)    # (hidden, 3)
        self.b1 = np.array(doc["b1"], dtype=float)
        self.w2 = np.array(doc["w2"], dtype=float)    # (3, hidden)
        self.b2 = np.array(doc["b2"], dtype=float)
        self.lo = np.array(doc["input_min"], dtype=float)
        self.hi = np.array(doc["input_max"], dtype=float)
        self.meta = doc.get("meta", {})

    @classmethod
    def load(cls, path) -> "Model":
        with open(path) as fh:
            return cls(json.load(fh))

    def angles(self, x_mm) -> np.ndarray:
        """Joint angles for tip positions in mm: inputs are scaled to the
        model's box, then w2 relu(w1 u + b1) + b2."""
        u = (np.atleast_2d(np.asarray(x_mm, dtype=float)) - self.lo) / (self.hi - self.lo)
        return self.angles_normalized(u)

    def angles_normalized(self, u) -> np.ndarray:
        hidden = np.maximum(np.atleast_2d(u) @ self.w1.T + self.b1, 0.0)
        return hidden @ self.w2.T + self.b2

    def w_bar(self) -> float:
        return float(np.mean(np.abs(self.w2)))

    def gamma(self) -> float:
        """sqrt(3) times the largest all-active row sum of |w2| |w1|."""
        return math.sqrt(3.0) * float(np.max((np.abs(self.w2) @ np.abs(self.w1)).sum(axis=1)))

    def track(self, path_mm):
        """Replayed tip positions and the per-point miss in mm."""
        reached = fk(self.angles(path_mm))
        return reached, np.linalg.norm(reached - path_mm, axis=1)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
