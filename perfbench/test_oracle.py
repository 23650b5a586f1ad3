"""The benchmark's oracle against values worked out by hand.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import math

import numpy as np
import pytest

import oracle

# hidden = 2; the input box is [0, 2]^3 so normalized inputs are x / 2
HAND_MODEL = oracle.Model({
    "w1": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "b1": [0.0, -0.5],
    "w2": [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
    "b2": [0.0, 0.0, 1.0],
    "input_min": [0.0, 0.0, 0.0],
    "input_max": [2.0, 2.0, 2.0],
})


@pytest.mark.parametrize("q, tip", [
    ((0.0, 0.0, 0.0), (140.0, 0.0, 70.0)),            # arm stretched along x1
    ((math.pi / 2, 0.0, 0.0), (0.0, 140.0, 70.0)),    # yawed onto x2
    ((0.0, 0.0, -math.pi / 2), (70.0, 0.0, 0.0)),     # forearm hanging down
    ((0.0, math.pi / 2, 0.0), (0.0, 0.0, 210.0)),     # arm straight up
    ((math.pi, math.pi / 2, -math.pi / 2), (-70.0, 0.0, 140.0)),
])
def test_fk_hand_values(q, tip):
    assert np.allclose(oracle.fk(q)[0], tip, rtol=0, atol=1e-12)


def test_forward_pass_hand_values():
    # (1, 1, 0) -> u = (.5, .5, 0): hidden (.5, 0), out (.5, 0, 1.5)
    # (2, 2, 2) -> u = (1, 1, 1): hidden (1, .5), out (1, 1, 2.5)
    out = HAND_MODEL.angles([[1.0, 1.0, 0.0], [2.0, 2.0, 2.0]])
    assert np.array_equal(out, [[0.5, 0.0, 1.5], [1.0, 1.0, 2.5]])


def test_weight_statistics_hand_values():
    assert HAND_MODEL.w_bar() == pytest.approx(5.0 / 6.0, rel=1e-15)
    # |w2||w1| = [[1,0,0],[0,2,0],[1,1,0]]: largest row sum 2
    assert HAND_MODEL.gamma() == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)


def test_rectangle_hand_values():
    pts = oracle.rectangle_path()
    assert pts.shape == (200, 3)
    assert np.allclose(pts[[0, 1, 25, 50, 75, 100, 199]], [
        (30.0, 30.0, 10.0), (31.6, 30.0, 10.0), (70.0, 30.0, 10.0),
        (70.0, 70.0, 10.0), (30.0, 70.0, 10.0), (30.0, 30.0, 50.0),
        (30.0, 31.6, 50.0)], rtol=0, atol=1e-12)


def test_heart_hand_values():
    pts = oracle.heart_path()
    assert pts.shape == (200, 3)
    # t = 0, pi/2, pi, 3pi/2
    assert np.allclose(pts[[0, 50, 100, 150]], [
        (50.0, 57.8125, 30.0), (75.0, 56.25, 30.0),
        (50.0, 23.4375, 30.0), (25.0, 56.25, 30.0)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("k, w_bar, value", [
    (2, 0.0, 0.25), (3, 1.0, 1.75), (5, 0.5, 0.12109375)])
def test_closed_form_hand_values(k, w_bar, value):
    assert oracle.closed_form_bound(k, w_bar) == value
    assert oracle.est_bound_mm(k, w_bar) == pytest.approx(60.0 * value, rel=1e-15)


@pytest.mark.parametrize("n, sizes", [
    (8, (6, 1, 1)),        # 0.4 rounds to 0, floored up to 1
    (10, (8, 1, 1)),       # 0.5 rounds half up to 1
    (30, (26, 2, 2)),      # 1.5 rounds half up to 2
    (64, (58, 3, 3)),
    (125, (113, 6, 6)),
    (216, (194, 11, 11)),
    (512, (460, 26, 26)),
    (1000, (900, 50, 50)),
])
def test_split_rounding_hand_values(n, sizes):
    assert oracle.split_sizes(n) == sizes


@pytest.mark.parametrize("n_train, steps", [(1, 1), (6, 1), (8, 1), (9, 2), (460, 58)])
def test_steps_per_epoch_hand_values(n_train, steps):
    assert oracle.steps_per_epoch(n_train) == steps


def test_grid_hand_values():
    g2 = oracle.box_grid(2)
    assert g2.shape == (8, 3)
    assert np.array_equal(g2[[0, 1, 2, 4, 7]], [
        (20.0, 20.0, 0.0), (20.0, 20.0, 60.0), (20.0, 80.0, 0.0),
        (80.0, 20.0, 0.0), (80.0, 80.0, 60.0)])
    assert np.array_equal(oracle.box_grid(3)[13], (50.0, 50.0, 30.0))
    assert oracle.spacing_mm(2) == 60.0
    assert oracle.spacing_mm(5) == 15.0


def test_track_is_zero_for_exact_angles():
    # a model whose output is constant and equal to the angles of (70, 0, 0)
    model = oracle.Model({
        "w1": [[0.0, 0.0, 0.0]], "b1": [0.0], "w2": [[0.0], [0.0], [0.0]],
        "b2": [0.0, 0.0, -math.pi / 2], "input_min": [0.0, 0.0, 0.0],
        "input_max": [1.0, 1.0, 1.0]})
    reached, err = model.track(np.array([[70.0, 0.0, 0.0], [70.0, 0.0, 3.0]]))
    assert np.allclose(err, [0.0, 3.0], rtol=0, atol=1e-12)
