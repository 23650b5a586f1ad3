"""Numeric kernels: the forward pass, backprop, and one epoch of mini-batch
Adam for a stack of S models trained in lockstep.

The parameters of a stack live in one (S, P) float64 array, one row per
model, so Adam updates every weight of every model with one call per
operation. A row holds, in order and flattened:

    a1: (3, hidden)   input-to-hidden weights
    b1: (hidden,)
    a2: (hidden, 3)   hidden-to-output weights
    b2: (3,)

so P = 7 * hidden + 3. The weights are transposed relative to the public
``NetworkParams`` so every matmul runs on C-contiguous operands.

Each product is one ``np.matmul`` over the stack; elementwise operations and
per-model sums never mix models. Slice s of a stacked step is therefore
bitwise the step model s would take alone. This needs the transposed
operands of the backward products to be C-contiguous copies: a transposed
view can round differently when a batch has a single row.
"""

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
    gb2 = dout.sum(axis=1)
    dh = dout @ np.ascontiguousarray(a2.transpose(0, 2, 1))
    dh = np.where(pre > 0.0, dh, 0.0)
    ga1 = np.ascontiguousarray(x.transpose(0, 2, 1)) @ dh
    gb1 = dh.sum(axis=1)
    s = x.shape[0]
    return err, np.concatenate((ga1.reshape(s, -1), gb1, ga2.reshape(s, -1), gb2), axis=1)


def epoch_step(theta, m, v, hidden, x, y, batch_size, lr, beta1, beta2, eps, step0):
    """One epoch of mini-batch Adam for a stack, mutating theta and the
    moments m, v (all (S, P)) in place.

    x, y (S, n, 3) are each model's training inputs and targets, already in
    this epoch's shuffled order. ``step0`` is the Adam step counter so far,
    shared by the stack. Returns (step, losses) where losses (S,) holds each
    model's sample-weighted mean of the pre-update batch losses.
    """
    a1, b1, a2, b2 = unpack(theta, hidden)
    n = x.shape[1]
    sse = np.zeros(theta.shape[0])
    step = step0
    for start in range(0, n, batch_size):
        stop = start + batch_size
        err, g = gradients(a1, b1, a2, b2, x[:, start:stop], y[:, start:stop])
        sse += np.sum(err * err, axis=(1, 2))

        step += 1
        bc1 = 1.0 - beta1 ** step
        bc2 = 1.0 - beta2 ** step
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return step, sse / (n * 3.0)
