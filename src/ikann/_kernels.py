"""Numeric kernels: the forward pass, backprop, and one epoch of mini-batch
Adam for a stack of R models trained in lockstep.

The parameters of a stack live in one (R, P) float64 array, one row per
model, so Adam updates every weight of every model with one call per
operation. A row holds, in order and flattened:

    a1: (3, hidden)   input-to-hidden weights
    b1: (hidden,)
    a2: (hidden, 3)   hidden-to-output weights
    b2: (3,)

so P = 7 * hidden + 3. The weights are transposed relative to the public
``NetworkParams`` so every matmul runs on C-contiguous operands.

The models of a stack may train on sets of different sizes. The rows are
sorted by training-set size, largest first, so the rows that have a full
batch j form a prefix of the stack, and one step on views of that prefix
serves them all; each block of rows of one size then takes its short last
batch together (:func:`plan`). Each row keeps its own Adam step count.

Each product is one ``np.matmul`` over the rows of a step; elementwise
operations and per-model sums never mix models. Row r of a stacked step is
therefore bitwise the step model r would take alone. This needs the
transposed operands of the backward products to be C-contiguous copies: a
transposed view can round differently when a batch has a single row.
"""

import itertools

import numpy as np


def unpack(theta, hidden):
    """Views (a1, b1, a2, b2) into flat parameter rows theta (..., P)."""
    lead = theta.shape[:-1]
    h3 = 3 * hidden
    return (theta[..., :h3].reshape(lead + (3, hidden)),
            theta[..., h3:h3 + hidden],
            theta[..., h3 + hidden:2 * h3 + hidden].reshape(lead + (hidden, 3)),
            theta[..., 2 * h3 + hidden:])


def forward(a1, b1, a2, b2, x):
    """Network output for normalized inputs x (..., B, 3) -> (..., B, 3)."""
    h = np.maximum(x @ a1 + b1[..., None, :], 0.0)
    return h @ a2 + b2[..., None, :]


def mse(a1, b1, a2, b2, x, y):
    """MSE over batch rows and the 3 output components, one per model."""
    err = forward(a1, b1, a2, b2, x) - y
    return np.sum(err * err, axis=(-2, -1)) / (err.shape[-2] * 3.0)


def gradients(a1, b1, a2, b2, x, y):
    """Exact MSE gradients of a stack for one batch x, y (S, B, 3); the ReLU
    subgradient at 0 is 0.

    Returns (err, g): the output errors (S, B, 3) and the gradients as flat
    rows (S, P) in the layout of the parameters.
    """
    pre = x @ a1 + b1[:, None, :]
    h = np.maximum(pre, 0.0)
    err = h @ a2 + b2[:, None, :] - y
    dout = err * (2.0 / (x.shape[1] * 3.0))
    ga2 = np.ascontiguousarray(h.transpose(0, 2, 1)) @ dout
    gb2 = np.add.reduce(dout, axis=1)
    dh = dout @ np.ascontiguousarray(a2.transpose(0, 2, 1))
    dh = np.where(pre > 0.0, dh, 0.0)
    ga1 = np.ascontiguousarray(x.transpose(0, 2, 1)) @ dh
    gb1 = np.add.reduce(dh, axis=1)
    s = x.shape[0]
    return err, np.concatenate((ga1.reshape(s, -1), gb1, ga2.reshape(s, -1), gb2), axis=1)


def runs(values):
    """(lo, hi, value) for each run of equal values in a sequence."""
    lo = 0
    for value, run in itertools.groupby(list(values)):
        hi = lo + len(list(run))
        yield lo, hi, value
        lo = hi


def plan(theta, m, v, hidden, n_train, batch_size):
    """The mini-batch steps of one epoch for a stack whose rows are sorted by
    training-set size ``n_train`` (R,), largest first.

    Batch j runs as one step on the prefix of rows that have a full batch j;
    after the full batches, each block of rows of one size takes its short
    last batch together. Returns (sse, steps): a buffer for each row's sum of
    squared errors, and per step its rows (a slice) with their views
    ``theta, m, v, unpack(theta), sse``, the columns of their shuffled
    training data it reads, and its batch index j within each row's epoch.
    The views stay valid while theta, m and v (R, P) are updated in place, so
    a plan serves every epoch until the stack changes.
    """
    n_train = [int(n) for n in n_train]
    sse = np.zeros(len(n_train))
    views = {}

    def rows(lo, hi):
        if (lo, hi) not in views:
            th = theta[lo:hi]
            views[lo, hi] = (slice(lo, hi), th, m[lo:hi], v[lo:hi], unpack(th, hidden),
                              sse[lo:hi])
        return views[lo, hi]

    steps = []
    for j in range(n_train[0] // batch_size):
        a = sum(n // batch_size > j for n in n_train)
        steps.append((rows(0, a), slice(j * batch_size, (j + 1) * batch_size), j))
    for lo, hi, n in runs(n_train):
        full = n // batch_size
        if n > full * batch_size:
            steps.append((rows(lo, hi), slice(full * batch_size, n), full))
    return sse, steps


def epoch_step(schedule, x, y, bc1, bc2, lr, beta1, beta2, eps):
    """One epoch of mini-batch Adam for a stack, mutating its parameters and
    moments in place through the views of ``schedule`` (from :func:`plan`).

    x, y (R, n, 3) are each row's training inputs and targets in this epoch's
    shuffled order, padded to the longest set. bc1, bc2 (J, R, 1) are the
    bias corrections 1 - beta**t of the Adam step t that each row takes as its
    batch j. Returns each row's sum of squared pre-update batch errors (R,).
    """
    sse, steps = schedule
    sse[:] = 0.0
    for (r, theta, m, v, params, row_sse), cols, j in steps:
        err, g = gradients(*params, x[r, cols], y[r, cols])
        row_sse += np.add.reduce(err * err, axis=(1, 2))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        theta -= lr * (m / bc1[j, r]) / (np.sqrt(v / bc2[j, r]) + eps)
    return sse.copy()
