import itertools
import math

import numpy as np
import pytest

from ikann.errors import NotACube, UnreachableGridPoint, UnreachableTarget
from ikann.kinematics import (ELBOW_A, ELBOW_B, RobotGeometry, forward_kinematics_batch,
                              inverse_kinematics)
from ikann.sampler import (WorkspaceBox, generate_grid, half_spacing_normalized,
                           normalize_input, spacing_mm)


def test_grid_k2_is_box_corners(box, geom):
    ds = generate_grid(box, 2, geom)
    assert ds.n == 8
    got = sorted(map(tuple, ds.points))
    want = sorted(itertools.product(*zip(box.lo, box.hi)))
    assert got == want


def test_grid_k5_count_and_order(box, geom):
    ds = generate_grid(box, 5, geom)
    assert ds.n == 125
    # row-major: x3 fastest, x1 slowest
    step = box.span / 4
    np.testing.assert_allclose(ds.points[0], box.lo)
    np.testing.assert_allclose(ds.points[1], box.lo + [0, 0, step[2]])
    np.testing.assert_allclose(ds.points[5], box.lo + [0, step[1], 0])
    np.testing.assert_allclose(ds.points[25], box.lo + [step[0], 0, 0])


def test_grid_unreachable_point(geom):
    bad = WorkspaceBox(lo=np.array([250.0, 250.0, 250.0]), hi=np.array([310.0, 310.0, 310.0]))
    with pytest.raises(UnreachableGridPoint):
        generate_grid(bad, 2, geom)


def test_grid_inner_band_builds():
    # l2 = 70, l3 = 50: the inner sphere has radius 20 about the shoulder
    # (0, 0, 70), and the corner lo lies 5e-11 mm inside it, within IK's
    # rounding tolerance
    geom = RobotGeometry(l1=70.0, l2=70.0, l3=50.0)
    box = WorkspaceBox(lo=np.array([20.0 - 5e-11, 0.0, 70.0]), hi=np.array([30.0, 10.0, 80.0]))
    ds = generate_grid(box, 2, geom)
    err = np.linalg.norm(forward_kinematics_batch(ds.angles, geom) - ds.points, axis=1)
    assert err.max() < 1e-9


def test_grid_and_ik_agree_on_outer_sphere(geom):
    # 5.25e-11 mm beyond the outer sphere; grid point 4 of this box
    p = (140.0 + 5.25e-11, 0.0, 70.0)
    with pytest.raises(UnreachableTarget):
        inverse_kinematics(p, geom)
    box = WorkspaceBox(lo=np.array([130.0, 0.0, 70.0]), hi=np.array([p[0], 10.0, 80.0]))
    with pytest.raises(UnreachableGridPoint) as exc:
        generate_grid(box, 2, geom)
    assert str(exc.value) == f"grid point 4 at {p} mm is unreachable"


def per_point_ik(points, geom):
    return np.array([inverse_kinematics(p, geom) for p in points])


@pytest.mark.parametrize("k", range(2, 13))
def test_grid_labels_are_per_point_ik_bitwise(box, geom, k):
    ds = generate_grid(box, k, geom)
    assert ds.angles.tobytes() == per_point_ik(ds.points, geom).tobytes()


@pytest.mark.parametrize("branch", [ELBOW_A, ELBOW_B])
def test_inner_band_labels_are_per_point_ik_bitwise(branch):
    geom = RobotGeometry(l1=70.0, l2=70.0, l3=50.0, elbow_branch=branch)
    box = WorkspaceBox(lo=np.array([20.0 - 5e-11, 0.0, 70.0]), hi=np.array([30.0, 10.0, 80.0]))
    for k in (2, 7):
        ds = generate_grid(box, k, geom)
        assert ds.angles.tobytes() == per_point_ik(ds.points, geom).tobytes()


def test_grid_labels_roundtrip(box, geom):
    ds = generate_grid(box, 4, geom)
    err = np.linalg.norm(forward_kinematics_batch(ds.angles, geom) - ds.points, axis=1)
    assert err.max() < 1e-9


def test_grid_axis_reversal_same_point_set(box):
    k = 4
    forward = {tuple(np.linspace(box.lo[i], box.hi[i], k)) for i in range(3)}
    reverse = {tuple(sorted(np.linspace(box.hi[i], box.lo[i], k))) for i in range(3)}
    assert forward == reverse


def test_grid_k_validation(box, geom):
    with pytest.raises(ValueError):
        generate_grid(box, 1, geom)


def test_normalize_corners_and_midpoint(box):
    np.testing.assert_allclose(normalize_input(box.lo, box), [0, 0, 0], atol=0)
    np.testing.assert_allclose(normalize_input(box.hi, box), [1, 1, 1], atol=0)
    np.testing.assert_allclose(normalize_input([50.0, 50.0, 30.0], box), [0.5, 0.5, 0.5])


def test_normalize_outside_box_linear(box):
    u = normalize_input(box.hi + box.span, box)
    np.testing.assert_allclose(u, [2.0, 2.0, 2.0])


@pytest.mark.parametrize("n, expected", [(8, 0.5), (27, 0.25), (125, 0.125)])
def test_half_spacing_examples(n, expected):
    assert half_spacing_normalized(n) == expected


def test_half_spacing_not_a_cube():
    for n in (10, 100, 24, 0, -8):
        with pytest.raises(NotACube):
            half_spacing_normalized(n)


def test_half_spacing_identity():
    for k in range(2, 9):
        assert half_spacing_normalized(k ** 3) * 2 * (k - 1) == 1.0


def test_spacing_mm_values(box):
    assert spacing_mm(box, 5) == 15.0
    assert spacing_mm(box, 2) == 60.0
    assert spacing_mm(box, 4) == 20.0


def test_box_validation():
    with pytest.raises(ValueError):
        WorkspaceBox(lo=np.array([0.0, 0.0, 0.0]), hi=np.array([10.0, 10.0, 0.0]))
    with pytest.raises(ValueError):
        WorkspaceBox(lo=np.zeros(2), hi=np.ones(2))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            WorkspaceBox(lo=np.array([0.0, -bad, 0.0]), hi=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            WorkspaceBox(lo=np.zeros(3), hi=np.array([1.0, 1.0, bad]))
