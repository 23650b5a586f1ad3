"""Stacked-kernel checks: a stack of models computes what each model computes
alone."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adam_step, init_adam_state
from ikann import _kernels
from ikann.neuralnet import NetworkParams, backward, init_params, predict


def flat_of(p):
    """NetworkParams or Gradients as one flat row in the kernels' layout."""
    return np.concatenate((p.w1.T.ravel(), p.b1, p.w2.T.ravel(), p.b2))


def flat_row(seed, hidden=16):
    return flat_of(init_params(hidden, seed))


def test_unpack_gives_views():
    theta = np.stack([flat_row(1), flat_row(2)])
    a1, b1, a2, b2 = _kernels.unpack(theta, 16)
    assert (a1.shape, b1.shape, a2.shape, b2.shape) == ((2, 3, 16), (2, 16), (2, 16, 3), (2, 3))
    theta += 1.0
    np.testing.assert_array_equal(a1[1], init_params(16, 2).w1.T + 1.0)


def reference_step(params, xb, yb):
    """One model's output errors and gradients (a1, b1, a2, b2) for one
    batch, as plain 2-D np.dot products: b1 is added after the first product,
    and the bias gradients are batch sums."""
    a1, b1, a2, b2 = params
    pre = np.dot(xb, a1) + b1
    h = np.maximum(pre, 0.0)
    err = np.dot(h, a2) + b2 - yb
    dout = err * (2.0 / (len(xb) * 3.0))
    dh = np.where(pre > 0.0, np.dot(dout, np.ascontiguousarray(a2.T)), 0.0)
    return err, (np.dot(np.ascontiguousarray(xb.T), dh), dh.sum(axis=0),
                 np.dot(np.ascontiguousarray(h.T), dout), dout.sum(axis=0))


def reference_epoch(params, x, y, batch_size, lr, beta1, beta2, eps, step, moments=None):
    """One model's epoch as a plain loop of 2-D np.dot products; returns the
    new (a1, b1, a2, b2), the step count and the epoch loss. ``moments``, an
    (m, v) pair per parameter, start at 0 unless given, and are updated in
    place."""
    params = [p.copy() for p in params]
    if moments is None:
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    sse = 0.0
    for start in range(0, len(x), batch_size):
        err, grads = reference_step(params, x[start:start + batch_size],
                                    y[start:start + batch_size])
        sse += np.sum(err * err)
        step += 1
        for p, (m, v), g in zip(params, moments, grads):
            m[:] = beta1 * m + (1.0 - beta1) * g
            v[:] = beta2 * v + (1.0 - beta2) * (g * g)
            p -= lr * (m / (1.0 - beta1 ** step)) / (np.sqrt(v / (1.0 - beta2 ** step)) + eps)
    return params, step, sse / (len(x) * 3.0)


def stacked_epoch(theta, n_train, x, y, epoch):
    """Epoch ``epoch`` of a stack from zero moments; returns each row's loss."""
    schedule = _kernels.plan(theta, np.zeros((2,) + theta.shape), 16, n_train, 8)
    schedule.x[..., :3], schedule.y[:] = x, y
    return _kernels.epoch_step(schedule, epoch, 0.001)


def assert_rows_match_reference(seeds, n_train, epoch, x, y):
    # each row has taken epoch * (its steps per epoch) Adam steps before
    theta = np.stack([flat_row(s) for s in seeds])
    losses = stacked_epoch(theta, n_train, x, y, epoch)
    for row, (seed, n) in enumerate(zip(seeds, n_train)):
        step0 = epoch * -(-n // 8)
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
                                    0, x[stack], y[stack])


def test_mixed_size_stack_matches_single_models():
    # rows sorted by training-set size: two of 25 (a shared one-row tail), 12
    # (one full batch and a tail of 4) and 6, which has no full batch, as on
    # the k = 2 grid; in epoch 10 each row has its own Adam step count (40,
    # 40, 20 and 10). The padding past each row's own set is NaN, so a step
    # that read it would show.
    seeds, n_train = (11, 12, 13, 14), [25, 25, 12, 6]
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, (4, 25, 3))
    y = rng.normal(0, 1, (4, 25, 3))
    for row, n in enumerate(n_train):
        x[row, n:] = y[row, n:] = np.nan
    assert_rows_match_reference(seeds, n_train, 10, x, y)


def assert_epochs_match_reference(seeds, n_train, epochs, rng, lrs=None):
    """Train a stack ``epochs`` epochs on fresh data each epoch, as
    ``_train_stack`` does, and assert that every row's loss and parameters
    are bitwise those of the reference epochs of the model alone. The padding
    past each row's own set is NaN, so a step or a loss sum that read it
    would show. ``lrs`` gives each epoch's learning rate, 0.001 unless
    given."""
    rows, longest = len(seeds), n_train[0]
    theta = np.stack([flat_row(s) for s in seeds])
    schedule = _kernels.plan(theta, np.zeros((2,) + theta.shape), 16, n_train, 8)
    refs = [_kernels.unpack(flat_row(s), 16) for s in seeds]
    moments = [[(np.zeros_like(p), np.zeros_like(p)) for p in ref] for ref in refs]
    for epoch, lr in enumerate(lrs or [0.001] * epochs):
        x = rng.uniform(0, 1, (rows, longest, 3))
        y = rng.normal(0, 1, (rows, longest, 3))
        for row, n in enumerate(n_train):
            x[row, n:] = y[row, n:] = np.nan
        schedule.x[..., :3], schedule.y[:] = x, y   # plan starts the last column at 1
        losses = _kernels.epoch_step(schedule, epoch, lr)
        for row, n in enumerate(n_train):
            refs[row], _, loss = reference_epoch(refs[row], x[row, :n], y[row, :n], 8, lr,
                                                 0.9, 0.999, 1e-8, epoch * -(-n // 8),
                                                 moments[row])
            assert losses[row] == loss, (epoch, row)
            for got, want in zip(_kernels.unpack(theta[row], 16), refs[row]):
                np.testing.assert_array_equal(got, want)


def test_ones_columns_hold_across_steps_of_every_shape():
    # the default sweep's child stack, one seed of each k = 7..2: full batches
    # of 6 down to 1 rows, then tails of 5, 2, 1, 2, 1 and 6 samples, for 3
    # epochs of fresh data. The bias gradients come from the columns of ones
    # of the inputs and of the shared activations; every row takes bitwise the
    # reference steps, whose bias gradients are batch sums, after steps of
    # every other shape have run.
    assert_epochs_match_reference((11, 12, 13, 14, 15, 16), [309, 194, 113, 58, 25, 6], 3,
                                  np.random.default_rng(8))


def test_epoch_loss_is_the_sum_of_the_step_losses():
    # the loss is summed once per epoch from the errors the steps wrote over
    # the targets, and is bitwise the reference's ((0 + s_0) + s_1) + ... of
    # per-batch sums: blocks of two rows with 38 full batches and a tail of 5
    # (a pairwise sum over the batches would round differently), 3 full
    # batches and a tail of 1, and no full batch (n = 6); and a stack of one
    # row, where a reduce of the batch sums transposed is pairwise too. A
    # short batch summed over a zero-padded slot of 8 would round differently.
    rng = np.random.default_rng(10)
    assert_epochs_match_reference((11, 12, 13, 14, 15, 16), [309, 309, 25, 25, 6, 6], 3, rng)
    assert_epochs_match_reference((17,), [309], 3, rng)


def test_one_plan_takes_each_calls_learning_rate():
    # epoch_step writes its lr into the plan's learning-rate array on every
    # call, so epochs at other rates from one plan are bitwise the reference
    # epochs at those rates
    assert_epochs_match_reference((11, 12, 13), [25, 25, 12], 3, np.random.default_rng(11),
                                  lrs=(0.004, 0.02, 0.001))


class Recorder:
    """A ufunc that records each call's arguments and passes it on; its
    methods, such as ``reduce``, are the ufunc's own."""

    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        self.calls.append((self.ufunc, args, kwargs))
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)


@pytest.mark.parametrize("n_train", [
    [n for n in (460, 309, 194, 113, 58, 25, 6) for _ in range(5)],   # the default sweep
    [460],
])
def test_step_ufuncs_take_full_shape_arrays(monkeypatch, n_train):
    # every operand of an elementwise ufunc in an epoch is an array of its
    # output's shape, a constant included, except the two broadcasts left:
    # b2 (S, 1, 3) and the bias corrections (2, S, 1); no operand is a
    # Python scalar. b1 rides the inputs' column of ones in every step of
    # more than one sample, and only a 1-sample step adds it, at its own shape
    calls = []
    for name in ("add", "divide", "greater", "logical_not", "maximum", "multiply", "sqrt",
                 "subtract"):
        monkeypatch.setattr(_kernels, name, Recorder(getattr(np, name), calls))
    rng = np.random.default_rng(12)
    theta = np.stack([flat_row(s) for s in range(len(n_train))])
    schedule = _kernels.plan(theta, np.zeros((2,) + theta.shape), 16, n_train, 8)
    schedule.x[..., :3] = rng.uniform(0, 1, schedule.x[..., :3].shape)
    schedule.y[:] = rng.normal(0, 1, schedule.y.shape)
    _kernels.epoch_step(schedule, 0, 0.001)

    # 6 elementwise calls in _backprop and 10 in the Adam update per step,
    # the b1 add of each 1-sample step, and _epoch_sse's square. Each size
    # whose last batch holds one sample takes one 1-sample step: k = 5 (113)
    # and k = 3 (25) in the default sweep
    one_sample_steps = len({n for n in n_train if n % 8 == 1})
    assert one_sample_steps == (2 if len(n_train) > 1 else 0)
    assert sum(step.cols.stop - step.cols.start == 1 for step in schedule.steps) \
        == one_sample_steps
    assert len(calls) == 16 * len(schedule.steps) + one_sample_steps + 1
    b1_adds = 0
    for ufunc, args, kwargs in calls:
        *operands, out = args[:ufunc.nin] + (args[ufunc.nin:] or (kwargs["out"],))
        assert all(type(a) is np.ndarray for a in operands + [out]), ufunc.__name__
        if ufunc is np.add and out.shape[-1] == 16:   # b1 onto the (S, B, H) pre-activations
            assert out.shape[1] == 1
            b1_adds += 1
        for a in operands:
            if a.shape != out.shape:
                if ufunc is np.add:
                    assert out.shape[2] == 3 and a.shape == (out.shape[0], 1, 3)
                else:
                    assert ufunc is np.divide and a.shape == (2, out.shape[1], 1)
    assert b1_adds == one_sample_steps


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6), batch=st.integers(1, 20), hidden=st.integers(1, 20),
       epoch=st.integers(0, 50), seed=st.integers(0, 2 ** 32 - 1))
@example(rows=3, batch=1, hidden=16, epoch=0, seed=1)   # a 1-sample step
@example(rows=2, batch=8, hidden=1, epoch=0, seed=2)    # a 1-unit step
def test_first_product_keeps_the_bits_of_a_separate_b1_add(rows, batch, hidden, epoch, seed):
    # the kernel folds b1 into the first product where that product is
    # matrix-matrix (batch and hidden >= 2), and adds it after a
    # matrix-vector product. Either way the output errors of gradients, and
    # the loss of a one-step epoch, are bitwise the reference's, which adds
    # b1 after a 2-D np.dot. Where the rows of ones keep the bits of batch
    # sums (batch <= 15, hidden >= 2; see the _kernels docstring), the
    # gradients and the stacked epoch's parameters are bitwise the
    # reference's too; elsewhere they are bitwise the same model alone. The
    # parameters are random, so b1 is not 0.
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-1, 1, (rows, 7 * hidden + 3))
    x = rng.uniform(0, 1, (rows, batch, 3))
    y = rng.normal(0, 1, (rows, batch, 3))
    like_reference = batch <= 15 and hidden > 1

    err, g = _kernels.gradients(*_kernels.unpack(theta, hidden), x, y)
    for r in range(rows):
        want_err, want_g = reference_step(_kernels.unpack(theta[r], hidden), x[r], y[r])
        assert err[r].tobytes() == want_err.tobytes()
        if like_reference:
            assert g[r].tobytes() == np.concatenate([w.ravel() for w in want_g]).tobytes()
        else:
            _, alone = _kernels.gradients(*_kernels.unpack(theta[r:r + 1], hidden),
                                          x[r:r + 1], y[r:r + 1])
            assert g[r].tobytes() == alone[0].tobytes()

    def one_step_epoch(params, xs, ys):
        schedule = _kernels.plan(params, np.zeros((2,) + params.shape), hidden,
                                 [batch] * len(params), batch)
        schedule.x[..., :3], schedule.y[:] = xs, ys
        return _kernels.epoch_step(schedule, epoch, 0.001)

    stacked = theta.copy()
    losses = one_step_epoch(stacked, x, y)
    for r in range(rows):
        want, _, want_loss = reference_epoch(_kernels.unpack(theta[r], hidden), x[r], y[r],
                                             batch, 0.001, 0.9, 0.999, 1e-8, epoch)
        assert losses[r] == want_loss
        if like_reference:
            assert stacked[r].tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()
        else:
            alone = theta[r:r + 1].copy()
            one_step_epoch(alone, x[r:r + 1], y[r:r + 1])
            assert stacked[r].tobytes() == alone[0].tobytes()


def test_chunks_keep_their_byte_bound():
    # a chunk holds at most 16 epochs of bias corrections and of the
    # caller's shuffled orders, in at most 1 MB per stack, and at least one
    # epoch; a one-epoch chunk writes its bias corrections straight into the
    # array the steps read, so it costs no memory of its own
    for rows, n, chunk in ((5, 460, 16), (30, 309, 11), (300, 460, 1)):
        theta = np.zeros((rows, 7 * 16 + 3))
        schedule = _kernels.plan(theta, np.zeros((2,) + theta.shape), 16, [n] * rows, 8)
        assert schedule.chunk == chunk == len(schedule.bc_chunk)
        per_epoch = schedule.bc.nbytes + rows * n * np.dtype(np.intp).itemsize
        assert chunk * per_epoch <= 1 << 20 or chunk == 1
    assert np.shares_memory(schedule.bc_chunk, schedule.bc)


def test_plan_of_default_sweep():
    # five seeds of each k = 2..8: 57 full batches (k = 2 has none), then one
    # tail per k
    n_train = [n for n in (460, 309, 194, 113, 58, 25, 6) for _ in range(5)]
    theta = np.zeros((len(n_train), 7 * 16 + 3))
    mv = np.zeros((2,) + theta.shape)
    steps, _, per_epoch, n3, moments, *_ = _kernels.plan(theta, mv, 16, n_train, 8)
    assert moments is mv
    assert len(steps) == 57 + 7
    prefix = [(step.rows, step.cols, step.j) for step in steps[:57]]
    assert prefix[0] == (slice(0, 30), slice(0, 8), 0)
    assert prefix[3] == (slice(0, 25), slice(24, 32), 3)
    assert prefix[56] == (slice(0, 5), slice(448, 456), 56)
    tails = [(step.rows, step.cols, step.j) for step in steps[57:]]
    assert tails[0] == (slice(0, 5), slice(456, 460), 57)
    assert tails[-1] == (slice(30, 35), slice(0, 6), 0)
    # steps per epoch 58, 39, 25, 15, 8, 4 and 1; loss divisors 3 * n_train
    assert per_epoch == [(5 * i, 5 * i + 5, q) for i, q in enumerate((58, 39, 25, 15, 8, 4, 1))]
    np.testing.assert_array_equal(n3, np.array(n_train) * 3.0)


def test_steps_of_one_shape_share_scratch_and_keep_their_ones():
    # the default sweep's child stack: the 30 rows of k = 2..7, 44 steps per
    # epoch; the steps of one shape hold one _Scratch, and after an epoch
    # every step's activations still end in their column of ones
    n_train = [n for n in (309, 194, 113, 58, 25, 6) for _ in range(5)]
    rng = np.random.default_rng(5)
    theta = np.stack([flat_row(s) for s in range(len(n_train))])
    schedule = _kernels.plan(theta, np.zeros((2,) + theta.shape), 16, n_train, 8)
    steps = schedule.steps
    assert len(steps) == 44

    first, last = steps[0].scratch, steps[-1].scratch
    assert first.pre.shape == (25, 8, 16) and last.pre.shape == (5, 6, 16)
    assert first.h1.shape == (25, 8, 17) and last.h1.shape == (5, 6, 17)
    by_shape = {}
    for step in steps:
        assert by_shape.setdefault(step.scratch.pre.shape, step.scratch) is step.scratch
    assert len(by_shape) < len(steps)

    schedule.x[..., :3] = rng.uniform(0, 1, schedule.x[..., :3].shape)
    schedule.y[:] = rng.normal(0, 1, schedule.y.shape)
    _kernels.epoch_step(schedule, 0, 0.001)
    for step in steps:
        np.testing.assert_array_equal(step.scratch.h1[..., 16], 1.0)


def train_dead_unit(epochs, moment_entries):
    """A stack of one model with a dead hidden unit, trained ``epochs`` epochs
    by the kernel and by the unflushed Adam oracle side by side.

    The unit's input weights are 0 and its bias is -1, so it never fires on
    inputs in [0, 1]^3 and all its gradients are exactly 0. The first moments
    of its ``moment_entries`` ("b1", "w2", "w1") start at 1e-300 and decay
    by 0.9 per step, through the subnormal range by step ~170 and down to a
    few ulps by step ~500. After every epoch, the kernel's moments hold no
    subnormal. Yields per epoch (kernel theta, oracle theta, whether an
    oracle moment is subnormal).
    """
    hidden, unit, n, lr = 16, 5, 25, 0.001
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (n, 3))
    y = rng.normal(0, 1, (n, 3))
    p = init_params(hidden, 4)
    w1, b1 = p.w1.copy(), p.b1.copy()
    w1[unit], b1[unit] = 0.0, -1.0
    p = NetworkParams(w1=w1, b1=b1, w2=p.w2, b2=p.b2)
    state = init_adam_state(p)
    planted = {"b1": state.m.b1[unit:unit + 1], "w2": state.m.w2[:, unit], "w1": state.m.w1[unit]}
    for name in moment_entries:
        planted[name][:] = 1e-300

    theta = flat_of(p)[None]
    mv = np.zeros((2,) + theta.shape)
    mv[0, 0] = flat_of(state.m)
    schedule = _kernels.plan(theta, mv, hidden, [n], 8)
    schedule.x[0, :, :3] = x
    tiny = np.finfo(float).tiny
    for epoch in range(epochs):
        schedule.y[0] = y   # an epoch writes its errors over its targets
        _kernels.epoch_step(schedule, epoch, lr)
        assert not np.any((mv != 0) & (np.abs(mv) < tiny)), epoch
        for start in range(0, n, 8):
            g = backward(p, x[start:start + 8], y[start:start + 8])
            p, state = adam_step(p, g, state, lr)
        m = flat_of(state.m)
        yield theta[0], flat_of(p), bool(np.any((m != 0) & (np.abs(m) < tiny)))


def test_moments_leave_the_subnormal_range_and_no_parameter_bit_moves():
    # the dead unit's bias (-1) and output weights keep their normal size, so
    # the flush moves none of their bits; its zero input weights keep zero
    # moments and stay exactly 0
    oracle_subnormal = 0
    for got, want, subnormal in train_dead_unit(450, ("b1", "w2")):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        oracle_subnormal += subnormal
    # the oracle's moments sat in the subnormal range for most of the run
    assert oracle_subnormal > 300


def test_flush_moves_only_weights_below_its_bound():
    # a zero weight with a nonzero moment is the one case the flush can move:
    # the unit's input weights drift from 0 to about -2e-294, where a step
    # from a subnormal moment still counts. Every weight that differs from
    # the oracle's is below the bound lr * 4e-283 of the module docstring.
    *_, (got, want, _) = train_dead_unit(450, ("b1", "w2", "w1"))
    moved = got != want
    assert moved.sum() == 3
    assert np.all(np.abs(got[moved]) < 0.001 * 4e-283)
    assert np.all(np.abs(want[moved]) < 0.001 * 4e-283)


def test_gradients_leave_their_inputs_as_they_are():
    # the kernel writes the output errors over its targets, so gradients and
    # backward work on a copy: the caller's arrays keep their values, and a
    # second call gives the same result
    rng = np.random.default_rng(4)
    p = init_params(16, 3)
    x, q = rng.uniform(0, 1, (8, 3)), rng.normal(0, 1, (8, 3))
    x0, q0 = x.copy(), q.copy()
    first = backward(p, x, q)
    second = backward(p, x, q)
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(q, q0)
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))

    params = _kernels.unpack(flat_of(p)[None], 16)
    err, g = _kernels.gradients(*params, x[None], q[None])
    err2, g2 = _kernels.gradients(*params, x[None], q[None])
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(q, q0)
    np.testing.assert_array_equal(err, err2)
    np.testing.assert_array_equal(g, g2)
    np.testing.assert_array_equal(err[0], predict(p, x) - q)


def test_relu_mask_zeroes_where_pre_activation_is_not_positive():
    # a diverged row: one unit's bias is NaN, so its pre-activation is NaN,
    # and the NaN output error reaches every hidden gradient; the mask keeps
    # exactly the entries where pre > 0 is True, as np.where(pre > 0, dh, 0)
    # does, so the NaN unit's input gradients are 0
    rng = np.random.default_rng(3)
    a1, b1, a2, b2 = (t.copy() for t in _kernels.unpack(flat_row(2)[None], 16))
    b1[0, 7] = np.nan
    x = rng.uniform(0, 1, (1, 8, 3))
    _, g = _kernels.gradients(a1, b1, a2, b2, x, rng.normal(0, 1, (1, 8, 3)))
    ga1, gb1, _, _ = _kernels.unpack(g, 16)
    fires = np.any(x[0] @ a1[0] + b1[0] > 0.0, axis=0)
    assert not fires[7] and fires.sum() > 8
    assert np.all(gb1[0, ~fires] == 0.0) and np.all(ga1[0][:, ~fires] == 0.0)
    assert np.all(np.isnan(gb1[0, fires]))


def reference_forward(a1, b1, a2, b2, x):
    """The forward pass as one expression with a new array per operation:
    the reference for the kernel's in-place bias adds and ReLU."""
    return np.maximum(x @ a1 + b1[..., None, :], 0.0) @ a2 + b2[..., None, :]


def test_forward_is_the_reference_expression_bitwise():
    rng = np.random.default_rng(8)
    theta = np.stack([flat_row(s) for s in range(5)])
    theta[4, 3] = np.nan   # a diverged row
    stacked = _kernels.unpack(theta, 16)
    one = _kernels.unpack(theta[0], 16)
    for params, x in ((stacked, rng.uniform(-1, 2, (5, 40, 3))),
                      (one, rng.uniform(-1, 2, (2000, 3)))):
        got = _kernels.forward(*params, x)
        assert got.tobytes() == reference_forward(*params, x).tobytes()
