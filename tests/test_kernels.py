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


def bias_corrections(beta, steps_so_far, batches):
    """(batches, rows, 1) table of 1 - beta**t for the step t of each row's
    batch j, as Python floats."""
    return np.array([[[1.0 - beta ** (s + j + 1)] for s in steps_so_far]
                     for j in range(batches)])


def stacked_epoch(theta, n_train, x, y, steps_so_far):
    """One stacked epoch from zero moments; returns each row's epoch loss."""
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    schedule = _kernels.plan(theta, m, v, 16, n_train, 8)
    batches = -(-max(n_train) // 8)
    sse = _kernels.epoch_step(schedule, x, y,
                              bias_corrections(0.9, steps_so_far, batches),
                              bias_corrections(0.999, steps_so_far, batches),
                              0.001, 0.9, 0.999, 1e-8)
    return sse / (np.asarray(n_train) * 3.0)


def assert_rows_match_reference(seeds, n_train, steps_so_far, x, y):
    theta = np.stack([flat_row(s) for s in seeds])
    losses = stacked_epoch(theta, n_train, x, y, steps_so_far)
    for row, (seed, n, step0) in enumerate(zip(seeds, n_train, steps_so_far)):
        ref, ref_step, ref_loss = reference_epoch(
            _kernels.unpack(flat_row(seed), 16), x[row, :n], y[row, :n],
            8, 0.001, 0.9, 0.999, 1e-8, step0)
        assert ref_step == step0 + -(-n // 8)
        assert losses[row] == ref_loss
        for got, want in zip(_kernels.unpack(theta[row], 16), ref):
            np.testing.assert_array_equal(got, want)


def test_stacked_epoch_step_matches_single_models():
    # every model of a stack takes bitwise the reference step; n = 25 with
    # batches of 8 leaves a one-row tail batch, as on the k = 3 grid
    seeds = (11, 12, 13)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, (len(seeds), 25, 3))
    y = rng.normal(0, 1, (len(seeds), 25, 3))
    for stack in ([0], [0, 1, 2]):
        assert_rows_match_reference([seeds[i] for i in stack], [25] * len(stack),
                                    [0] * len(stack), x[stack], y[stack])


def test_mixed_size_stack_matches_single_models():
    # rows sorted by training-set size: two of 25 (a shared one-row tail), 12
    # (one full batch and a tail of 4) and 6, which has no full batch, as on
    # the k = 2 grid; each row has its own Adam step count. The padding past
    # each row's own set is NaN, so a step that read it would show.
    seeds, n_train, steps_so_far = (11, 12, 13, 14), [25, 25, 12, 6], [0, 8, 3, 40]
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, (4, 25, 3))
    y = rng.normal(0, 1, (4, 25, 3))
    for row, n in enumerate(n_train):
        x[row, n:] = y[row, n:] = np.nan
    assert_rows_match_reference(seeds, n_train, steps_so_far, x, y)


def test_plan_of_default_sweep():
    # five seeds of each k = 2..8: 57 full batches (k = 2 has none), then one
    # tail per k
    n_train = [n for n in (460, 309, 194, 113, 58, 25, 6) for _ in range(5)]
    theta = np.zeros((len(n_train), 7 * 16 + 3))
    _, steps = _kernels.plan(theta, theta.copy(), theta.copy(), 16, n_train, 8)
    assert len(steps) == 57 + 7
    prefix = [(rows[0], cols, j) for rows, cols, j in steps[:57]]
    assert prefix[0] == (slice(0, 30), slice(0, 8), 0)
    assert prefix[3] == (slice(0, 25), slice(24, 32), 3)
    assert prefix[56] == (slice(0, 5), slice(448, 456), 56)
    tails = [(rows[0], cols, j) for rows, cols, j in steps[57:]]
    assert tails[0] == (slice(0, 5), slice(456, 460), 57)
    assert tails[-1] == (slice(30, 35), slice(0, 6), 0)
