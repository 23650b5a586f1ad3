import math

import numpy as np
import pytest

from ikann.errors import DegenerateAxis, UnreachableTarget
from ikann.kinematics import RobotGeometry, forward_kinematics_batch, inverse_kinematics
from ikann.neuralnet import predict
from ikann.sampler import WorkspaceBox, normalize_input
from ikann.trajectory import (PathOutsideBoxWarning, TrajectorySpec,
                              evaluate_tracking, exact_ik_model,
                              make_heart_path, make_rectangle_path)


# --- rectangle path ---------------------------------------------------------

def test_rectangle_corners(box):
    # 25 points per edge: each rectangle opens its edges at ring indices
    # 0, 25, 50 and 75, the low one at z = 10, the high one at z = 50
    pts = make_rectangle_path(box).points
    corners = [[30.0, 30.0], [70.0, 30.0], [70.0, 70.0], [30.0, 70.0]]
    for start, z in ((0, 10.0), (100, 50.0)):
        np.testing.assert_array_equal(pts[start + np.array([0, 25, 50, 75])],
                                      [[*c, z] for c in corners])
    assert set(pts[:100, 2]) == {10.0} and set(pts[100:, 2]) == {50.0}


def test_rectangle_default_count(box):
    traj = make_rectangle_path(box)
    assert traj.points.shape == (200, 3)      # 2 * 4 * (26 - 1)
    assert len(np.unique(traj.points, axis=0)) == 200


def test_rectangle_validation():
    # the 10 mm margin on each side leaves nothing of a box 20 mm wide
    for hi in ([40.0, 80.0, 60.0], [80.0, 35.0, 60.0]):
        with pytest.raises(ValueError, match="margin leaves no rectangle area"):
            make_rectangle_path(WorkspaceBox(lo=np.array([20.0, 20.0, 0.0]), hi=np.array(hi)))


# --- heart path -------------------------------------------------------------

def test_heart_extremes():
    traj = make_heart_path()
    assert traj.points.shape == (200, 3)
    # t = 0 is the first sample: the top notch at cy + scale*5/16
    np.testing.assert_allclose(traj.points[0], [50.0, 50.0 + 25.0 * 5 / 16, 30.0], atol=1e-12)
    # t = pi is sample n/2: the bottom tip at cy - scale*17/16
    np.testing.assert_allclose(traj.points[100], [50.0, 50.0 - 25.0 * 17 / 16, 30.0], atol=1e-12)


def test_heart_symmetry():
    pts = make_heart_path().points
    # t -> 2*pi - t mirrors x1 about the center and preserves x2
    for i in range(1, 100):
        np.testing.assert_allclose(pts[i, 0] - 50.0, -(pts[200 - i, 0] - 50.0), atol=1e-9)
        np.testing.assert_allclose(pts[i, 1], pts[200 - i, 1], atol=1e-9)


def test_default_paths_inside_box(box):
    for traj in (make_rectangle_path(box), make_heart_path()):
        assert box.contains(traj.points).all()


def test_trajectory_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(points=np.zeros((1, 3)))


# --- tracking evaluation ----------------------------------------------------

def test_exact_ik_oracle_zero_error(box, geom):
    oracle = exact_ik_model(geom)
    for traj in (make_rectangle_path(box), make_heart_path()):
        rep = evaluate_tracking(oracle, traj, geom, box)
        assert rep.max_mm < 1e-9


@pytest.mark.parametrize("geom", [RobotGeometry(), RobotGeometry(elbow_branch="B")])
def test_exact_ik_model_is_per_point_ik_bitwise(box, geom):
    for traj in (make_rectangle_path(box), make_heart_path()):
        want = np.array([inverse_kinematics(p, geom) for p in traj.points])
        assert exact_ik_model(geom)(traj.points).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad, error", [((300.0, 0.0, 0.0), UnreachableTarget),
                                        ((math.nan, 50.0, 30.0), UnreachableTarget),
                                        ((0.0, 0.0, 30.0), DegenerateAxis)])
def test_exact_ik_model_fails_at_the_row_ik_fails(geom, bad, error):
    pts = make_heart_path().points
    for row in (0, 57, len(pts) - 1):
        with_bad = pts.copy()
        with_bad[row] = bad
        # a later bad row of the other kind does not change which one is named
        if row + 1 < len(pts):
            other = (0.0, 0.0, 31.0) if error is UnreachableTarget else (0.0, 300.0, 0.0)
            with_bad[row + 1] = other
        with pytest.raises(error) as exc:
            exact_ik_model(geom)(with_bad)
        with pytest.raises(error) as ref:
            inverse_kinematics(with_bad[row], geom)
        assert str(exc.value) == str(ref.value)


def test_constant_model_mean_distance(box, geom):
    center = (box.lo + box.hi) / 2
    q_center = inverse_kinematics(center, geom)

    def constant_model(points_mm):
        return np.tile(q_center, (len(points_mm), 1))

    traj = make_rectangle_path(box)
    rep = evaluate_tracking(constant_model, traj, geom, box)
    expected = float(np.linalg.norm(traj.points - center, axis=1).mean())
    assert rep.mean_mm == pytest.approx(expected, rel=1e-9)


def test_trained_model_reasonable_error(box, geom, trained_k3):
    params, _ = trained_k3
    rep = evaluate_tracking(params, make_rectangle_path(box), geom, box)
    assert rep.mean_mm < 60.0
    assert rep.n_points == 200


def test_report_statistics_consistent(box, geom, trained_k3):
    params, _ = trained_k3
    traj = make_rectangle_path(box)
    rep = evaluate_tracking(params, traj, geom, box)
    q_hat = predict(params, normalize_input(traj.points, box))
    err = np.linalg.norm(forward_kinematics_batch(q_hat, geom) - traj.points, axis=1)
    assert rep.mean_mm == pytest.approx(float(err.mean()), rel=1e-12)
    assert rep.std_mm == pytest.approx(float(err.std()), rel=1e-12)
    assert rep.max_mm == float(err.max())
    assert np.all(err >= 0)


def test_outside_box_points_warn(box, geom):
    # (90, 90, 30) is reachable but outside the training box; the warning
    # names the caller's line, not the package's
    traj = TrajectorySpec(points=np.array([[50.0, 50.0, 30.0], [90.0, 90.0, 30.0]]))
    with pytest.warns(PathOutsideBoxWarning) as record:
        evaluate_tracking(exact_ik_model(geom), traj, geom, box)
    assert [w.filename for w in record] == [__file__]
