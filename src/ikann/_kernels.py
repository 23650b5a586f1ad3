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
``NetworkParams`` so the forward products read C-contiguous weights.

The models of a stack may train on sets of different sizes. The rows are
sorted by training-set size, largest first, so the rows that have a full
batch j form a prefix of the stack, and one step on views of that prefix
serves them all; each block of rows of one size then takes its short last
batch together (:func:`plan`). A row takes the same steps every epoch, so
its Adam step count follows from the epoch. The rows stay fixed for a whole
run: a model that stops keeps its row, and nothing reads its later steps.

Adam's first and second moments live in one (2, R, P) array, m in [0] and
v in [1], so each Adam operation is one call over both. A step writes its
gradients and temporaries in place into scratch buffers that it shares with
the other steps of its shape.

Each bias gradient comes out of the product that computes its weight
gradient. In a row, a1 (3, hidden) lies directly above b1, so its first
4 * hidden entries form a (4, hidden) block, and a2 (hidden, 3) lies directly
above b2, so the rest form a (hidden + 1, 3) block. The epoch's inputs carry a
fourth column of ones, and the hidden activations a last column of ones; the
product of a transposed operand with its row of ones is the sum over the
batch. So one product (x, 1)^T dh writes the (4, hidden) block, and one
product (h, 1)^T dout the (hidden + 1, 3) block, with no reduction and no
transposed copy. The forward pass reads the first ``hidden`` activation
columns and adds b2 separately. Where its first product is matrix-matrix
(batch and hidden both at least 2), it reads all four input columns and the
(4, hidden) block, so b1 rides the column of ones: in random trials with
numpy 2.4's OpenBLAS (S from 1 to 30, batch from 2 to 2000, hidden from 2 to
64; 13 million entries) that product equalled ``x @ a1 + b1`` bit for bit in
every entry. With one sample or one unit numpy takes its matrix-vector path,
which sums in another order (at batch 1 and hidden 16, 16 of a trial's 80
entries moved), so such a step reads three columns and adds b1 after the
product. Folding b2 into the second product the same way moved about a
third of the outputs at batch 8 and hidden 16, so b2 is always added apart.

A step writes its output errors over its view of the epoch's targets, and
the training loss is summed from them once per epoch, not per step: the
epoch uses up the targets, which the caller gathers again for every epoch
anyway. Each row's loss is the sum ((0 + s_0) + s_1) + ... over its batches
in order, each s_j numpy's pairwise sum of that batch's squared errors, the
bits of a sum kept step by step (:func:`_epoch_sse` says which reductions
keep that order).

A step's cost is mostly call overhead, so :func:`plan` builds, once per
stack, everything the step loop hands to a ufunc, and the loop does no more
than call. The schedule holds two flat tuples per step, the arguments of
:func:`_backprop` and those of the Adam update, so a step is one star-call
and one unpack. No ufunc of a step takes a Python scalar: converting one
costs more than reading an array of the operand's full shape, so each
constant is such an array, holding the same value, and each ufunc does the
same IEEE operation on the same values. ADAM_EPS and the learning rate are
(S, P) row views of one (R, P) array each, and :func:`epoch_step` writes its
learning rate into its array once per call; the error scale 2 / (3B) (S, B,
3) and the ReLU's 0.0 (S, B, H) live in the scratch of their step shape.
Only the (2, S, 1) bias corrections, b2 and the b1 of a one-unit step still
broadcast. Every ufunc of a step takes its output as a positional
argument and is bound once at import: an ``out=`` keyword and a numpy
attribute lookup each cost time. ``maximum`` keeps its ``out=``, because a
third positional argument to it is deprecated.

Each product is one ``np.matmul`` over the rows of a step; elementwise
operations and per-model sums never mix models. Row r of a stacked step is
therefore bitwise the step model r would take alone. In random trials with
numpy 2.4's OpenBLAS, the rows of ones gave bitwise the gradients of separate
batch reductions and ones-free products for every batch of at most 15
samples with at least 2 hidden units. A batch of 16 or more rounds some
weight gradients differently, and with one
hidden unit the products are matrix-vector products that sum in another
order; there the gradients move in the last bits, and a stacked row still
equals the same model alone.

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
from typing import NamedTuple

import numpy as np
from numpy import (add, copyto, divide, greater, logical_not, matmul, maximum, multiply, putmask,
                   sqrt, subtract)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_TINY = np.finfo(float).tiny   # the smallest normal float64
# the shuffles and bias corrections of a chunk of epochs are made at once,
# for at most this many epochs in at most this many bytes per stack (plan)
_CHUNK_EPOCHS = 16
_CHUNK_BYTES = 1 << 20


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
    h = x @ a1
    h += b1[..., None, :]
    np.maximum(h, 0.0, out=h)
    out = h @ a2
    out += b2[..., None, :]
    return out


def mse(a1, b1, a2, b2, x, y):
    """MSE over batch rows and the 3 output components, one per model."""
    err = forward(a1, b1, a2, b2, x) - y
    return np.sum(err * err, axis=(-2, -1)) / (err.shape[-2] * 3.0)


class _Scratch(NamedTuple):
    """Temporaries of one step of S rows and a batch of B samples, views of
    them made once (a view costs as much as a small ufunc call), and the
    step's constants at full shape."""

    pre: np.ndarray     # (S, B, H) hidden pre-activations
    dh: np.ndarray      # (S, B, H) hidden gradient
    off: np.ndarray     # (S, B, H) bool: where pre > 0 is False
    out: np.ndarray     # (S, B, 3) network outputs
    dout: np.ndarray    # (S, B, 3) output gradient
    a2t: np.ndarray     # (S, 3, H) C-contiguous transpose of a2
    g: np.ndarray       # (2, S, P) gradient rows and their squares, then the
                        # Adam step's quotients of m and v
    h1: np.ndarray      # (S, B, H + 1) hidden activations, then a column of ones
    h: np.ndarray       # h1[..., :H], the activations
    h1t: np.ndarray     # h1 transposed to (S, H + 1, B)
    g0: np.ndarray      # g[0] and g[1]
    g1: np.ndarray
    g1b1: np.ndarray    # g0[:, :4H] as the (S, 4, H) block of a1 and b1
    g2b2: np.ndarray    # g0[:, 4H:] as the (S, H + 1, 3) block of a2 and b2
    scale: np.ndarray   # (S, B, 3) the error scale 2 / (3B)
    zero: np.ndarray    # (S, B, H) the ReLU's 0.0


def _scratch(rows, batch, hidden):
    """The :class:`_Scratch` of a step of ``rows`` rows and ``batch``
    samples, in new buffers. The activations get their column of ones here,
    and a step writes only ``h1[..., :H]``."""
    hb, b3 = (rows, batch, hidden), (rows, batch, 3)
    h1 = np.empty((rows, batch, hidden + 1))
    h1[..., hidden] = 1.0
    g = np.empty((2, rows, 7 * hidden + 3))
    g0, g1 = g
    return _Scratch(pre=np.empty(hb), dh=np.empty(hb), off=np.empty(hb, dtype=bool),
                    out=np.empty(b3), dout=np.empty(b3), a2t=np.empty((rows, 3, hidden)),
                    g=g, h1=h1, h=h1[..., :hidden], h1t=h1.transpose(0, 2, 1), g0=g0, g1=g1,
                    g1b1=g0[:, :4 * hidden].reshape(rows, 4, hidden),
                    g2b2=g0[:, 4 * hidden:].reshape(rows, hidden + 1, 3),
                    scale=np.full(b3, 2.0 / (batch * 3.0)), zero=np.zeros(hb))


def _backprop_args(w1, a2, b2, x1, y, s):
    """The flat arguments of :func:`_backprop` for a stack's parameters: w1
    (S, 4, H), each row's block of a1 over b1, and a2 and b2 as
    :func:`unpack` gives them; a batch of inputs x1 (S, B, 4) with their
    column of ones, targets y (S, B, 3), and a :class:`_Scratch` s. The
    shape of s chooses the first product: with B and H both at least 2 it
    reads x1 and w1 whole and passes b1 as None, so b1 rides the column of
    ones; otherwise it reads x1[..., :3] and a1, and b1 is added apart (see
    the module docstring)."""
    _, batch, hidden = s.pre.shape
    if batch > 1 and hidden > 1:
        x, a1, b1 = x1, w1, None
    else:
        x, a1, b1 = x1[..., :3], w1[:, :3], w1[:, 3:]
    return (a1, b1, a2, a2.transpose(0, 2, 1), b2[:, None, :], x, x1.transpose(0, 2, 1), y,
            s.pre, s.dh, s.off, s.out, s.dout, s.a2t, s.h, s.h1t, s.g1b1, s.g2b2, s.scale,
            s.zero)


def _backprop(a1, b1, a2, a2_view, b2, x, x1t, y, pre, dh, off, out, dout, a2t, h, h1t, g1b1,
              g2b2, scale, zero):
    """Exact MSE gradients of a stack for one batch, written into g1b1 and
    g2b2, the blocks of a :class:`_Scratch`'s g0; the output errors are
    written over the targets y (S, B, 3). The arguments come from
    :func:`_backprop_args`: x (S, B, 4) and a1 (S, 4, H) with b1 None, or
    x (S, B, 3), a1 (S, 3, H) and b1 an (S, 1, H) view; b2 is an (S, 1, 3)
    view, a2_view is a2 transposed, x1t (S, 4, B) is the batch with its
    column of ones, transposed, and the rest are the scratch's fields of
    those names. The ReLU subgradient at 0 is 0."""
    matmul(x, a1, pre)
    if b1 is not None:   # a matrix-vector first product
        add(pre, b1, pre)
    maximum(pre, zero, out=h)   # out=: a third positional argument is deprecated here
    matmul(h, a2, out)
    add(out, b2, out)
    subtract(out, y, y)
    multiply(y, scale, dout)
    matmul(h1t, dout, g2b2)
    copyto(a2t, a2_view)
    matmul(dout, a2t, dh)
    # zero dh where pre > 0 is False, so a NaN pre zeroes it too
    logical_not(greater(pre, zero, off), off)
    putmask(dh, off, 0.0)
    matmul(x1t, dh, g1b1)


def gradients(a1, b1, a2, b2, x, y):
    """Exact MSE gradients of a stack for one batch x, y (S, B, 3); the ReLU
    subgradient at 0 is 0. x and y are left as they are.

    Returns (err, g): the output errors (S, B, 3) and the gradients as flat
    rows (S, P) in the layout of the parameters.
    """
    rows, batch, _ = x.shape
    x1 = np.ones((rows, batch, 4))
    x1[..., :3] = x
    err = np.array(y, dtype=float)
    s = _scratch(rows, batch, a1.shape[-1])
    _backprop(*_backprop_args(np.concatenate((a1, b1[:, None]), axis=1), a2, b2, x1, err, s))
    return err, s.g0


def runs(values):
    """(lo, hi, value) for each run of equal values in a sequence."""
    lo = 0
    for value, run in itertools.groupby(list(values)):
        hi = lo + len(list(run))
        yield lo, hi, value
        lo = hi


class _Step(NamedTuple):
    """One stacked step of an epoch: its rows, the columns of their shuffled
    data it reads, its batch index j in each row's epoch, and its
    :class:`_Scratch`. :func:`epoch_step` runs it from its pair in the
    schedule's ``loop``."""

    rows: slice
    cols: slice
    j: int
    scratch: _Scratch


class _Schedule(NamedTuple):
    """One epoch of a stack, from :func:`plan`: its :class:`_Step` list, each
    row's sum of squared errors, the runs (lo, hi, q) of rows taking q steps
    per epoch, each row's loss divisor 3 * n_train, the moments (2, R, P),
    the buffers the steps read: the epoch's shuffled inputs x (R, n, 4),
    whose last column is ones, and targets y (R, n, 3), and the bias
    corrections (batches, 2, R, 1); the loss
    sums of :func:`_epoch_sse`: the (part of y, axes, view of sums[0]) of
    each batch sum, and the sums (2, R, batches + 1), whose [1, :, -1] is the
    sum of squared errors; the ``loop`` of :func:`epoch_step`, each step's
    pair of flat tuples in order: the arguments of :func:`_backprop`
    (:func:`_backprop_args`) and those of the Adam update, (g, g0, g1) of the
    step's scratch, then the rows' views of the factors (1 - beta1,
    1 - beta2), the moments (2, S, P), the factors (beta1, beta2), the bias
    corrections (2, S, 1), ADAM_EPS, the learning rate and the parameters
    (S, P); the learning rate (R, P) that the Adam updates read; the number
    of epochs in a chunk, for which the bias corrections are computed, and
    the caller's shuffles drawn, at once; the bias corrections of a chunk's
    epochs (chunk, batches, 2, R, 1) from :func:`_bias_corrections`, and in
    a one-item list the first of those epochs."""

    steps: list
    sse: np.ndarray
    per_epoch: list
    n3: np.ndarray
    mv: np.ndarray
    x: np.ndarray
    y: np.ndarray
    bc: np.ndarray
    parts: list
    sums: np.ndarray
    loop: list
    lr: np.ndarray
    chunk: int
    bc_chunk: np.ndarray
    bc_from: list


def plan(theta, mv, hidden, n_train, batch_size):
    """The mini-batch steps of one epoch for a stack whose rows are sorted by
    training-set size ``n_train`` (R,), largest first.

    Batch j runs as one step on the prefix of rows that have a full batch j;
    after the full batches, each block of rows of one size takes its short
    last batch together. Returns the :class:`_Schedule` for
    :func:`epoch_step`. ``mv`` (2, R, P) holds Adam's first moments in
    ``mv[0]`` and second moments in ``mv[1]``. The steps of one shape share
    one set of temporaries and constants (:func:`_scratch`); every operand of
    a step, its data, bias corrections and constants included, is an array
    or a view made here, because making a view costs as much as a small
    ufunc call, and so are the views of the epoch's loss sums
    (:func:`_epoch_sse`). The views stay valid while theta (R, P) and mv are
    updated in place, so one plan serves a whole run.

    A chunk holds at most _CHUNK_EPOCHS epochs, as many as fit in
    _CHUNK_BYTES with the caller's (chunk, R, n) shuffled orders, and at
    least one. A chunk of one epoch computes its bias corrections straight
    into the array the steps read, so it needs no memory of its own.
    """
    n_train = [int(n) for n in n_train]
    rows = len(n_train)
    x, y = np.ones((rows, n_train[0], 4)), np.empty((rows, n_train[0], 3))
    batches = -(-n_train[0] // batch_size)
    bc = np.ones((batches, 2, rows, 1))
    chunk = max(1, min(_CHUNK_EPOCHS, _CHUNK_BYTES // (8 * rows * (n_train[0] + 2 * batches))))
    bc_chunk = bc[None] if chunk == 1 else np.ones((chunk,) + bc.shape)
    # a last column of zeros that no batch writes, so that the running sum
    # ends in each row's total (total + 0 is the total: it is not -0)
    sums = np.zeros((2, rows, batches + 1))
    # the Adam factors and constants at full shape: a (2, 1, 1) broadcast
    # costs twice the time, and a Python float more than an array
    decay = np.empty_like(mv)
    decay[0], decay[1] = ADAM_BETA1, ADAM_BETA2
    gain = 1.0 - decay
    eps, lr = np.full(theta.shape, ADAM_EPS), np.empty(theta.shape)
    scratch = {}

    def step(lo, hi, cols, j):
        r = slice(lo, hi)
        shape = (hi - lo, cols.stop - cols.start)
        if shape not in scratch:
            scratch[shape] = _scratch(*shape, hidden)
        s = scratch[shape]
        steps.append(_Step(r, cols, j, s))
        _, _, a2, b2 = unpack(theta[r], hidden)
        w1 = theta[r, :4 * hidden].reshape(hi - lo, 4, hidden)
        loop.append((_backprop_args(w1, a2, b2, x[r, cols], y[r, cols], s),
                     (s.g, s.g0, s.g1, gain[:, r], mv[:, r], decay[:, r], bc[j, :, r], eps[r],
                      lr[r], theta[r])))

    steps, loop, parts = [], [], []
    for j in range(n_train[0] // batch_size):
        a = sum(n // batch_size > j for n in n_train)
        step(0, a, slice(j * batch_size, (j + 1) * batch_size), j)
    for lo, hi, n in runs(n_train):
        full = n // batch_size
        if full:
            parts.append((y[lo:hi, :full * batch_size].reshape(hi - lo, full, batch_size, 3),
                          (2, 3), sums[0, lo:hi, :full]))
        if n > full * batch_size:
            step(lo, hi, slice(full * batch_size, n), full)
            parts.append((y[lo:hi, full * batch_size:n], (1, 2), sums[0, lo:hi, full]))
    per_epoch = list(runs(-(-n // batch_size) for n in n_train))
    return _Schedule(steps, sums[1, :, -1], per_epoch, np.array(n_train) * 3.0, mv, x, y, bc,
                     parts, sums, loop, lr, chunk, bc_chunk, [-chunk])


def _bias_corrections(first, per_epoch, bc_chunk):
    """Write into ``bc_chunk`` (chunk, batches, 2, rows, 1) 1 - beta**t for
    beta = ADAM_BETA1 and ADAM_BETA2 and the Adam step t of each row's batch
    j in each epoch of the chunk that starts at epoch ``first``; rows lo:hi
    of ``per_epoch`` take q steps per epoch, so they have taken epoch * q
    before an epoch. The values are Python floats, the bits a model alone
    would use (numpy's ``power`` rounds some of them differently)."""
    chunk = len(bc_chunk)
    for lo, hi, q in per_epoch:
        steps = range(first * q + 1, (first + chunk) * q + 1)
        for i, beta in enumerate((ADAM_BETA1, ADAM_BETA2)):
            bc_chunk[:, :q, i, lo:hi, 0] = np.array(
                [1.0 - beta ** t for t in steps]).reshape(chunk, q, 1)


def _epoch_sse(y, parts, sums):
    """Each row's sum of squared errors over an epoch, in sums[1, :, -1],
    from the output errors its steps wrote over its targets y (R, n, 3). The
    whole of y is squared in place in one call: numpy copies a strided view
    squared in place, and the padding past a row's set is gathered afresh
    next epoch. The sum is ((0 + s_0) + s_1) + ... over the row's batches in
    order, each s_j the pairwise sum of numpy's ``add.reduce`` over that
    batch's B * 3 values, the bits of a loss summed step by step. So the
    squares of a block of rows of one size are summed over each batch
    alone: over the last two axes of the full batches viewed as (rows, full,
    B, 3), and over exactly the rem * 3 values of the short batch, not a
    zero-padded slot, which rounds differently. The batch sums are then run
    along each row by ``add.accumulate``, which adds in order; ``add.reduce``
    along that axis is pairwise, and so is a reduce of a one-row block
    transposed."""
    multiply(y, y, y)
    for part, axes, out in parts:
        add.reduce(part, axis=axes, out=out)
    add.accumulate(sums[0], axis=1, out=sums[1])


def epoch_step(schedule, epoch, lr):
    """Epoch ``epoch`` (from 0) of mini-batch Adam for a stack, mutating its
    parameters and moments in place through the views of ``schedule`` (from
    :func:`plan`). At the end, every moment entry in the subnormal range is
    set to 0 (see the module docstring).

    ``schedule.x`` (R, n, 4) and ``schedule.y`` (R, n, 3) must hold each
    row's training inputs, followed by a column of ones, and targets in this
    epoch's shuffled order, padded to the longest set. The epoch uses up
    ``schedule.y``: each step writes its output errors over its targets, and
    the loss is summed from them once at the end (:func:`_epoch_sse`), so
    the caller writes the targets again before every epoch. Returns each
    row's mean squared pre-update batch error (R,). ``lr`` is written into
    the schedule's learning-rate array, which every step reads; outputs are
    positional (see the module docstring). The bias corrections are
    computed for a chunk of epochs from the first epoch outside the last
    chunk computed, and each epoch copies its own with one call.
    """
    _, sse, per_epoch, n3, mv, _, y, bc, parts, sums, loop, lrs, chunk, bc_chunk, bc_from \
        = schedule
    first = bc_from[0]
    if not first <= epoch < first + chunk:
        bc_from[0] = first = epoch
        _bias_corrections(epoch, per_epoch, bc_chunk)
    copyto(bc, bc_chunk[epoch - first])   # in a one-epoch chunk, onto itself
    lrs.fill(lr)
    for backprop, adam in loop:
        _backprop(*backprop)
        g, g0, g1, gain, m_v, decay, bc, eps, rate, theta = adam
        multiply(g0, g0, g1)
        multiply(g, gain, g)
        multiply(m_v, decay, m_v)
        add(m_v, g, m_v)
        divide(m_v, bc, g)
        sqrt(g1, g1)
        add(g1, eps, g1)
        multiply(g0, rate, g0)
        divide(g0, g1, g0)
        subtract(theta, g0, theta)
    copyto(mv, 0.0, where=np.abs(mv) < _TINY)
    _epoch_sse(y, parts, sums)
    return sse / n3
