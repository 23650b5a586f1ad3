"""Stacked-kernel checks: a stack of models computes what each model computes
alone."""

import numpy as np

from ikann import _kernels
from ikann.neuralnet import init_params


def flat_row(seed, hidden=16):
    p = init_params(hidden, seed)
    return np.concatenate((p.w1.T.ravel(), p.b1, p.w2.T.ravel(), p.b2))


def test_unpack_gives_views():
    theta = np.stack([flat_row(1), flat_row(2)])
    a1, b1, a2, b2 = _kernels.unpack(theta, 16)
    assert (a1.shape, b1.shape, a2.shape, b2.shape) == ((2, 3, 16), (2, 16), (2, 16, 3), (2, 3))
    theta += 1.0
    np.testing.assert_array_equal(a1[1], init_params(16, 2).w1.T + 1.0)


def reference_epoch(params, x, y, batch_size, lr, beta1, beta2, eps, step):
    """One model's epoch as a plain loop of 2-D np.dot products; returns the
    new (a1, b1, a2, b2), the step count and the epoch loss."""
    params = [p.copy() for p in params]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    sse = 0.0
    for start in range(0, len(x), batch_size):
        xb, yb = x[start:start + batch_size], y[start:start + batch_size]
        a1, b1, a2, b2 = params
        pre = np.dot(xb, a1) + b1
        h = np.maximum(pre, 0.0)
        err = np.dot(h, a2) + b2 - yb
        sse += np.sum(err * err)
        dout = err * (2.0 / (len(xb) * 3.0))
        dh = np.where(pre > 0.0, np.dot(dout, np.ascontiguousarray(a2.T)), 0.0)
        grads = (np.dot(np.ascontiguousarray(xb.T), dh), dh.sum(axis=0),
                 np.dot(np.ascontiguousarray(h.T), dout), dout.sum(axis=0))
        step += 1
        for p, (m, v), g in zip(params, moments, grads):
            m[:] = beta1 * m + (1.0 - beta1) * g
            v[:] = beta2 * v + (1.0 - beta2) * (g * g)
            p -= lr * (m / (1.0 - beta1 ** step)) / (np.sqrt(v / (1.0 - beta2 ** step)) + eps)
    return params, step, sse / (len(x) * 3.0)


def test_stacked_epoch_step_matches_single_models():
    # every model of a stack takes bitwise the reference step; n = 25 with
    # batches of 8 leaves a one-row tail batch, as on the k = 3 grid
    seeds = (11, 12, 13)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (len(seeds), 25, 3))
    y = rng.normal(0, 1, (len(seeds), 25, 3))
    for stack in ((0,), (0, 1, 2)):
        theta = np.stack([flat_row(seeds[i]) for i in stack])
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        step, losses = _kernels.epoch_step(theta, m, v, 16, x[list(stack)], y[list(stack)],
                                           8, 0.001, 0.9, 0.999, 1e-8, 0)
        for row, i in enumerate(stack):
            ref, ref_step, ref_loss = reference_epoch(
                _kernels.unpack(flat_row(seeds[i]), 16), x[i], y[i], 8, 0.001, 0.9, 0.999, 1e-8, 0)
            assert step == ref_step == 4
            assert losses[row] == ref_loss
            for got, want in zip(_kernels.unpack(theta[row], 16), ref):
                np.testing.assert_array_equal(got, want)
