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
batch together (:func:`plan`). A row takes the same steps every epoch, so
its Adam step count follows from the epoch. The rows stay fixed for a whole
run: a model that stops keeps its row, and nothing reads its later steps.

Adam's first and second moments live in one (2, R, P) array, m in [0] and
v in [1], so each Adam operation is one call over both. A step writes its
gradients and temporaries in place into leading views of one set of scratch
buffers per stack, and an epoch transposes its inputs once for all its
steps.

Each product is one ``np.matmul`` over the rows of a step; elementwise
operations and per-model sums never mix models. Row r of a stacked step is
therefore bitwise the step model r would take alone. This needs the
transposed operands of the backward products to be C-contiguous copies: a
transposed view can round differently when a batch has a single row.

Subnormal moments. A hidden unit whose ReLU never fires has gradient 0, so
its moments decay by beta every step until they stick a few ulps above 0
(0.9 times the smallest subnormal rounds back to it). Arithmetic on
subnormals takes the CPU's slow path, some 25 times the time per element,
and a run that kills more units pays more each epoch. :func:`epoch_step`
therefore sets every moment entry with 0 < |x| < 2.2e-308 (the smallest
normal float64) to 0 once per epoch. No parameter bit moves: the step such
an entry adds to a weight, lr * (m / bc1) / (sqrt(v / bc2) + eps), is below
lr * 2.3e-299 in magnitude (bc1 >= 0.1, and the denominator is at least
eps), less than a quarter ulp of any weight larger than lr * 4e-283; and a
v that small leaves sqrt(v / bc2) + eps equal to eps. Trained weights are
far larger: they start Glorot-uniform or at 0, and a weight whose gradient
was always 0 has moments of exactly 0.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_TINY = np.finfo(float).tiny   # the smallest normal float64


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


class _Scratch(NamedTuple):
    """Temporaries of one step of S rows and a batch of B samples."""

    pre: np.ndarray     # (S, B, H) hidden pre-activations
    h: np.ndarray       # (S, B, H) hidden activations
    ht: np.ndarray      # (S, H, B) their C-contiguous transpose
    dh: np.ndarray      # (S, B, H) hidden gradient
    off: np.ndarray     # (S, B, H) bool: where pre > 0 is False
    err: np.ndarray     # (S, B, 3) output errors
    dout: np.ndarray    # (S, B, 3) output gradient
    a2t: np.ndarray     # (S, 3, H) C-contiguous transpose of a2
    g: np.ndarray       # (2, S, P) gradient rows and their squares, then the
                        # Adam step's quotients of m and v
    grads: tuple        # unpack(g[0]): where backprop writes the gradients
    g0: np.ndarray      # g[0] and g[1], made once: a view costs as much as a
    g1: np.ndarray      # small ufunc call


def _scratch(rows, batch, hidden, base=None):
    """The :class:`_Scratch` of a step of ``rows`` rows and ``batch``
    samples: new buffers, or C-contiguous leading views of the buffers of
    ``base``, a :class:`_Scratch` at least as large."""
    hb, b3, width = (rows, batch, hidden), (rows, batch, 3), 7 * hidden + 3
    shapes = {"pre": hb, "h": hb, "ht": (rows, hidden, batch), "dh": hb, "off": hb,
              "err": b3, "dout": b3, "a2t": (rows, 3, hidden), "g": (2, rows, width)}
    views = {}
    for name, shape in shapes.items():
        flat = (np.empty(math.prod(shape), dtype=bool if name == "off" else float)
                if base is None else getattr(base, name).reshape(-1))
        views[name] = flat[:math.prod(shape)].reshape(shape)
    g = views["g"]
    return _Scratch(**views, grads=unpack(g[0], hidden), g0=g[0], g1=g[1])


def _backprop(a1, b1, a2, b2, x, xt, y, s):
    """Output errors and exact MSE gradients of a stack for one batch x, y
    (S, B, 3), written into ``s.err`` and ``s.grads`` (a :class:`_Scratch`).
    b1 and b2 are (S, 1, H) and (S, 1, 3) views; xt is x transposed to
    (S, 3, B) with unit inner stride. The ReLU subgradient at 0 is 0."""
    pre, h, ht, dh, off, err, dout, a2t, _, (ga1, gb1, ga2, gb2), _, _ = s
    np.matmul(x, a1, out=pre)
    pre += b1
    np.maximum(pre, 0.0, out=h)
    np.matmul(h, a2, out=err)
    err += b2
    err -= y
    np.multiply(err, 2.0 / (x.shape[1] * 3.0), out=dout)
    np.copyto(ht, h.transpose(0, 2, 1))
    np.matmul(ht, dout, out=ga2)
    np.add.reduce(dout, axis=1, out=gb2)
    np.copyto(a2t, a2.transpose(0, 2, 1))
    np.matmul(dout, a2t, out=dh)
    # zero dh where pre > 0 is False, so a NaN pre zeroes it too
    np.logical_not(np.greater(pre, 0.0, out=off), out=off)
    np.copyto(dh, 0.0, where=off)
    np.matmul(xt, dh, out=ga1)
    np.add.reduce(dh, axis=1, out=gb1)


def gradients(a1, b1, a2, b2, x, y):
    """Exact MSE gradients of a stack for one batch x, y (S, B, 3); the ReLU
    subgradient at 0 is 0.

    Returns (err, g): the output errors (S, B, 3) and the gradients as flat
    rows (S, P) in the layout of the parameters.
    """
    rows, batch, _ = x.shape
    hidden = a1.shape[-1]
    s = _scratch(rows, batch, hidden)
    _backprop(a1, b1[:, None, :], a2, b2[:, None, :], x,
              np.ascontiguousarray(x.transpose(0, 2, 1)), y, s)
    return s.err, s.g[0]


def runs(values):
    """(lo, hi, value) for each run of equal values in a sequence."""
    lo = 0
    for value, run in itertools.groupby(list(values)):
        hi = lo + len(list(run))
        yield lo, hi, value
        lo = hi


class _Step(NamedTuple):
    """One stacked step of an epoch: its rows, the columns of their shuffled
    data it reads, its batch index j in each row's epoch, views of the rows'
    parameters, moments (2, S, P) with their factors (beta1, beta2) and
    (1 - beta1, 1 - beta2), broadcast parameters (a1, b1[:, None], a2,
    b2[:, None]) and loss sums, its :class:`_Scratch`, and views of the
    schedule's buffers: its batch (x, x transposed, y) and its bias
    corrections (2, S, 1)."""

    rows: slice
    cols: slice
    j: int
    theta: np.ndarray
    mv: np.ndarray
    decay: np.ndarray
    gain: np.ndarray
    params: tuple
    sse: np.ndarray
    scratch: _Scratch
    batch: tuple
    bc: np.ndarray


class _Schedule(NamedTuple):
    """One epoch of a stack, from :func:`plan`: its :class:`_Step` list, each
    row's sum of squared errors, the runs (lo, hi, q) of rows taking q steps
    per epoch, each row's loss divisor 3 * n_train, the moments (2, R, P),
    and the buffers the steps read: the epoch's shuffled inputs x, targets y
    (R, n, 3) and inputs transposed xt (R, 3, n), and the bias corrections
    (batches, 2, R, 1) of :func:`_bias_corrections`."""

    steps: list
    sse: np.ndarray
    per_epoch: list
    n3: np.ndarray
    mv: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xt: np.ndarray
    bc: np.ndarray


def plan(theta, mv, hidden, n_train, batch_size):
    """The mini-batch steps of one epoch for a stack whose rows are sorted by
    training-set size ``n_train`` (R,), largest first.

    Batch j runs as one step on the prefix of rows that have a full batch j;
    after the full batches, each block of rows of one size takes its short
    last batch together. Returns the :class:`_Schedule` for
    :func:`epoch_step`. ``mv`` (2, R, P) holds Adam's first moments in
    ``mv[0]`` and second moments in ``mv[1]``. Every step's temporaries are
    leading views of one set of buffers for the stack, and steps of one shape
    share their views; its data and bias corrections are views made here,
    because making a view costs as much as a small ufunc call. The views stay
    valid while theta (R, P) and mv are updated in place, so one plan serves
    a whole run.
    """
    n_train = [int(n) for n in n_train]
    rows = len(n_train)
    sse = np.zeros(rows)
    base = _scratch(rows, batch_size, hidden)
    x, y = np.empty((rows, n_train[0], 3)), np.empty((rows, n_train[0], 3))
    xt = np.empty((rows, 3, n_train[0]))
    bc = np.ones((-(-n_train[0] // batch_size), 2, rows, 1))
    # the Adam factors at full shape: a (2, 1, 1) broadcast costs twice the time
    decay = np.empty_like(mv)
    decay[0], decay[1] = ADAM_BETA1, ADAM_BETA2
    gain = 1.0 - decay
    scratch = {}

    def step(lo, hi, cols, j):
        th = theta[lo:hi]
        a1, b1, a2, b2 = unpack(th, hidden)
        shape = (hi - lo, cols.stop - cols.start)
        if shape not in scratch:
            scratch[shape] = _scratch(*shape, hidden, base)
        r = slice(lo, hi)
        return _Step(r, cols, j, th, mv[:, r], decay[:, r], gain[:, r],
                     (a1, b1[:, None, :], a2, b2[:, None, :]), sse[r], scratch[shape],
                     (x[r, cols], xt[r, :, cols], y[r, cols]), bc[j, :, r])

    steps = []
    for j in range(n_train[0] // batch_size):
        a = sum(n // batch_size > j for n in n_train)
        steps.append(step(0, a, slice(j * batch_size, (j + 1) * batch_size), j))
    for lo, hi, n in runs(n_train):
        full = n // batch_size
        if n > full * batch_size:
            steps.append(step(lo, hi, slice(full * batch_size, n), full))
    per_epoch = list(runs(-(-n // batch_size) for n in n_train))
    return _Schedule(steps, sse, per_epoch, np.array(n_train) * 3.0, mv, x, y, xt, bc)


def _bias_corrections(epoch, per_epoch, bc):
    """Write into ``bc`` (batches, 2, rows, 1) 1 - beta**t for beta =
    ADAM_BETA1 and ADAM_BETA2 and the Adam step t of each row's batch j in
    this epoch; rows lo:hi of ``per_epoch`` take q steps per epoch, so they
    have taken epoch * q. The values are Python floats, the bits a model
    alone would use."""
    for lo, hi, q in per_epoch:
        for i, beta in enumerate((ADAM_BETA1, ADAM_BETA2)):
            bc[:q, i, lo:hi, 0] = [[1.0 - beta ** t]
                                   for t in range(epoch * q + 1, epoch * q + q + 1)]


def epoch_step(schedule, epoch, lr):
    """Epoch ``epoch`` (from 0) of mini-batch Adam for a stack, mutating its
    parameters and moments in place through the views of ``schedule`` (from
    :func:`plan`). At the end, every moment entry in the subnormal range is
    set to 0 (see the module docstring).

    ``schedule.x`` and ``schedule.y`` (R, n, 3) must hold each row's training
    inputs and targets in this epoch's shuffled order, padded to the longest
    set. Returns each row's mean squared pre-update batch error (R,).
    """
    steps, sse, per_epoch, n3, mv, x, _, xt, bcs = schedule
    np.copyto(xt, x.transpose(0, 2, 1))
    _bias_corrections(epoch, per_epoch, bcs)
    sse[:] = 0.0
    for _, _, _, theta, m_v, decay, gain, params, row_sse, s, batch, bc in steps:
        _backprop(*params, *batch, s)
        g, g0, g1 = s.g, s.g0, s.g1
        np.multiply(s.err, s.err, out=s.dout)
        row_sse += np.add.reduce(s.dout, axis=(1, 2))
        np.multiply(g0, g0, out=g1)
        g *= gain
        m_v *= decay
        m_v += g
        np.divide(m_v, bc, out=g)
        np.sqrt(g1, out=g1)
        g1 += ADAM_EPS
        g0 *= lr
        g0 /= g1
        theta -= g0
    np.copyto(mv, 0.0, where=np.abs(mv) < _TINY)
    return sse / n3
