import math

import numpy as np
import pytest

from conftest import jacobian_at
from ikann.bound import (WeightRangeWarning, check_weight_range,
                         compute_bound_report, jacobian_inf_norm_bound,
                         lipschitz_gamma, mean_abs_output_weight, rescale_to_mm,
                         sample_bound)
from ikann.errors import NotACube
from ikann.neuralnet import NetworkParams, init_params, predict

SQRT3 = math.sqrt(3.0)


def zero_net(hidden=4):
    return NetworkParams(w1=np.zeros((hidden, 3)), b1=np.zeros(hidden),
                         w2=np.zeros((3, hidden)), b2=np.zeros(3))


def one_unit_net():
    return NetworkParams(w1=np.array([[1.0, 0.0, 0.0]]), b1=np.zeros(1),
                         w2=np.array([[2.0], [0.0], [0.0]]), b2=np.zeros(3))


# --- jacobian ---------------------------------------------------------------

def test_jacobian_zero_net():
    np.testing.assert_array_equal(jacobian_at(zero_net(), [0.5, 0.5, 0.5]), np.zeros((3, 3)))


def test_jacobian_one_unit():
    p = one_unit_net()
    j = jacobian_at(p, [0.5, 0.0, 0.0])
    expected = np.zeros((3, 3))
    expected[0, 0] = 2.0
    np.testing.assert_array_equal(j, expected)
    np.testing.assert_array_equal(jacobian_at(p, [-1.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_jacobian_matches_finite_differences():
    p = init_params(12, 4)
    rng = np.random.default_rng(8)
    h = 1e-7
    checked = 0
    while checked < 50:
        x = rng.uniform(0, 1, 3)
        pre = p.w1 @ x + p.b1
        # only points whose activation mask is stable under the probe
        if np.min(np.abs(pre)) < 10 * h:
            continue
        j = jacobian_at(p, x)
        fd = np.empty((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[:, i] = (predict(p, x + e) - predict(p, x - e))[0] / (2 * h)
        assert np.max(np.abs(j - fd)) < 1e-6
        checked += 1


# --- norm bound and gamma ---------------------------------------------------

def test_inf_norm_bound_examples():
    assert jacobian_inf_norm_bound(zero_net()) == 0.0
    assert jacobian_inf_norm_bound(one_unit_net()) == 2.0


def test_inf_norm_bound_dominates_sampled_jacobians():
    p = init_params(16, 123)
    bound = jacobian_inf_norm_bound(p)
    rng = np.random.default_rng(55)
    xs = rng.uniform(0, 1, (10000, 3))
    worst = max(np.abs(jacobian_at(p, x)).sum(axis=1).max() for x in xs)
    assert bound >= worst


def test_lipschitz_gamma_examples():
    assert lipschitz_gamma(zero_net()) == 0.0
    assert lipschitz_gamma(one_unit_net()) == pytest.approx(2 * SQRT3)


def test_lipschitz_soundness_random_net():
    p = init_params(16, 31)
    gamma = lipschitz_gamma(p)
    rng = np.random.default_rng(99)
    x1 = rng.uniform(0, 1, (10000, 3))
    x2 = rng.uniform(0, 1, (10000, 3))
    lhs = np.linalg.norm(predict(p, x1) - predict(p, x2), axis=1)
    rhs = gamma * np.linalg.norm(x1 - x2, axis=1)
    assert np.count_nonzero(lhs > rhs) == 0


# --- w_bar ------------------------------------------------------------------

def test_mean_abs_output_weight():
    assert mean_abs_output_weight(zero_net()) == 0.0
    p = NetworkParams(w1=np.zeros((2, 3)), b1=np.zeros(2),
                      w2=np.array([[2.0, -2.0], [2.0, 2.0], [-2.0, -2.0]]), b2=np.zeros(3))
    assert mean_abs_output_weight(p) == 2.0
    assert mean_abs_output_weight(one_unit_net()) == pytest.approx(2.0 / 3.0)


# --- sample bound -----------------------------------------------------------

def test_sample_bound_exact_values():
    assert sample_bound(8, 1.0) == 7.0
    assert sample_bound(27, 0.0) == 0.0625
    assert sample_bound(125, 1.0) == 0.4375


def test_sample_bound_not_a_cube():
    with pytest.raises(NotACube):
        sample_bound(100, 1.0)
    with pytest.raises(NotACube):
        sample_bound(1, 1.0)


def test_sample_bound_monotonicity():
    for w in (0.0, 0.3, 1.0):
        vals = [sample_bound(k ** 3, w) for k in range(2, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for n in (8, 27, 125):
        vals = [sample_bound(n, w) for w in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_ratio_law_exact():
    for w in (0.0, 0.31, 1.0):
        assert sample_bound(27, w) / sample_bound(125, w) == 4.0


def test_ratio_law_general():
    for w in (0.1, 0.7):
        for k1, k2 in ((2, 5), (3, 8), (4, 6)):
            got = sample_bound(k1 ** 3, w) / sample_bound(k2 ** 3, w)
            want = ((k2 - 1) / (k1 - 1)) ** 2
            assert got == pytest.approx(want, rel=1e-12)


# --- rescale ----------------------------------------------------------------

def test_rescale_examples(box):
    assert rescale_to_mm(0.0, box) == 0.0
    assert rescale_to_mm(0.0625, box) == pytest.approx(3.75)


def test_rescale_ratio_preserved(box):
    for w in (0.2, 0.9):
        r = rescale_to_mm(sample_bound(27, w), box) / rescale_to_mm(sample_bound(125, w), box)
        assert r == 4.0


# --- report and diagnostics -------------------------------------------------

def test_bound_report_fields(box):
    p = init_params(16, 2)
    rep = compute_bound_report(p, 125, box)
    assert rep.n == 125
    assert rep.half_spacing == 0.125
    assert rep.rescale_factor_mm == pytest.approx(60.0)
    assert rep.gamma == pytest.approx(lipschitz_gamma(p))
    assert rep.w_bar == pytest.approx(mean_abs_output_weight(p))
    assert rep.bound_normalized == sample_bound(125, rep.w_bar)
    assert rep.e_est_mm == pytest.approx(rep.bound_normalized * 60.0)
    # floor with w_bar = 0
    assert rep.bound_normalized >= 1.0 / (4 * (5 - 1) ** 2)


def test_weight_range_warning():
    p = NetworkParams(w1=np.array([[6.0, 0.0, 0.0]]), b1=np.zeros(1),
                      w2=np.zeros((3, 1)), b2=np.zeros(3))
    with pytest.warns(WeightRangeWarning):
        check_weight_range(p)


def test_weight_range_quiet_for_small_weights(recwarn):
    check_weight_range(init_params(16, 0))
    assert not [w for w in recwarn.list if issubclass(w.category, WeightRangeWarning)]
