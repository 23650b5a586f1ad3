import math
import os
import pickle
import time

import numpy as np
import pytest

from conftest import adam_step, init_adam_state, loss
from ikann import _kernels, neuralnet
from ikann.errors import IkannError, InsufficientData, NonFiniteLoss, UnreachableGridPoint
from ikann.neuralnet import (Gradients, NetworkParams, TrainingConfig,
                             backward, init_params, predict,
                             split_dataset, split_sizes, train, train_lockstep)
from ikann.sampler import generate_grid, normalize_input


def one_unit_net():
    """hidden=1, w1 row (1,0,0), w2 column (2,0,0)^T, zero biases."""
    return NetworkParams(w1=np.array([[1.0, 0.0, 0.0]]), b1=np.zeros(1),
                         w2=np.array([[2.0], [0.0], [0.0]]), b2=np.zeros(3))


# --- init -------------------------------------------------------------------

def test_init_deterministic():
    a = init_params(16, 42)
    b = init_params(16, 42)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    c = init_params(16, 43)
    assert not np.array_equal(a.w1, c.w1)


def test_init_zero_biases_and_bounds():
    p = init_params(16, 1)
    assert np.all(p.b1 == 0.0) and np.all(p.b2 == 0.0)
    limit = math.sqrt(6.0 / 19.0)
    assert np.all(np.abs(p.w1) <= limit) and np.all(np.abs(p.w2) <= limit)


def test_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(w1=np.zeros((4, 3)), b1=np.zeros(3), w2=np.zeros((3, 4)), b2=np.zeros(3))
    with pytest.raises(ValueError):
        NetworkParams(w1=np.full((1, 3), np.nan), b1=np.zeros(1), w2=np.zeros((3, 1)), b2=np.zeros(3))
    for w1 in (5.0, 1.0, np.nan):   # a model file's scalar, true or null w1
        with pytest.raises(ValueError, match="inconsistent parameter shapes"):
            NetworkParams(w1=np.array(w1), b1=np.zeros(1), w2=np.zeros((3, 1)), b2=np.zeros(3))


# --- forward ----------------------------------------------------------------

def test_forward_dead_network_passes_bias():
    p = NetworkParams(w1=np.zeros((4, 3)), b1=np.zeros(4),
                      w2=np.zeros((3, 4)), b2=np.array([1.0, -2.0, 3.0]))
    np.testing.assert_array_equal(predict(p, [0.3, 0.5, 0.7]), [[1.0, -2.0, 3.0]])


def test_forward_relu_clamps():
    p = one_unit_net()
    np.testing.assert_array_equal(predict(p, [[-1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
                                  [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


# --- loss -------------------------------------------------------------------

def kernel_mse(p, x, y):
    """The training loss, ``_kernels.mse``, of one model."""
    theta = np.concatenate((p.w1.T.ravel(), p.b1, p.w2.T.ravel(), p.b2))
    return float(_kernels.mse(*_kernels.unpack(theta, p.hidden),
                              np.array(x, dtype=float), np.array(y, dtype=float)))


def test_loss_examples():
    # the training loss and the conftest oracle that fd_gradient differences
    p = one_unit_net()
    p0 = NetworkParams(w1=np.zeros((2, 3)), b1=np.zeros(2), w2=np.zeros((3, 2)), b2=np.zeros(3))
    for mse in (kernel_mse, loss):
        # perfect prediction
        assert mse(p, [[0.5, 0.0, 0.0]], [[1.0, 0.0, 0.0]]) == 0.0
        # off by (1,0,0): mean over 3 components
        assert mse(p, [[0.5, 0.0, 0.0]], [[0.0, 0.0, 0.0]]) == pytest.approx(1.0 / 3.0)
        # two samples, all component errors equal 2
        x = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]
        y = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]
        assert mse(p0, x, y) == pytest.approx(4.0)


# --- backward ---------------------------------------------------------------

def test_backward_zero_error_zero_gradient():
    p = one_unit_net()
    g = backward(p, [[0.5, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
    for name in ("w1", "b1", "w2", "b2"):
        assert np.all(getattr(g, name) == 0.0)


def test_backward_dead_unit_zero_gradient():
    p = one_unit_net()
    # negative pre-activation on every batch point
    g = backward(p, [[-1.0, 0.0, 0.0], [-0.5, 0.2, 0.2]], [[1.0, 0.0, 0.0]] * 2)
    assert np.all(g.w1[0] == 0.0) and g.b1[0] == 0.0


def test_gradient_check_vs_finite_differences():
    from conftest import fd_gradient
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        p0 = init_params(6, seed)
        p = NetworkParams(w1=p0.w1, b1=rng.normal(0, 0.2, 6),
                          w2=p0.w2, b2=rng.normal(0, 0.2, 3))
        x = rng.uniform(0, 1, (8, 3))
        y = rng.normal(0, 1, (8, 3))
        bp = backward(p, x, y)
        fd = fd_gradient(p, x, y)
        for name in ("w1", "b1", "w2", "b2"):
            a, b = getattr(bp, name), getattr(fd, name)
            denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(b)))
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    assert worst < 1e-5


# --- adam -------------------------------------------------------------------
# adam_step, the one-model oracle in conftest, pinned by hand values and then
# compared with the stacked kernel epoch

def _scalar_net(value=0.0):
    return NetworkParams(w1=np.array([[value, 0.0, 0.0]]), b1=np.zeros(1),
                         w2=np.zeros((3, 1)), b2=np.zeros(3))


def _scalar_grad(g):
    return Gradients(w1=np.array([[g, 0.0, 0.0]]), b1=np.zeros(1),
                     w2=np.zeros((3, 1)), b2=np.zeros(3))


def test_adam_first_step_magnitude():
    p = _scalar_net(0.0)
    state = init_adam_state(p)
    p2, state2 = adam_step(p, _scalar_grad(4.0), state, lr=0.001)
    delta = p2.w1[0, 0] - p.w1[0, 0]
    assert delta == pytest.approx(-0.001, rel=1e-6)
    assert state2.t == 1


def test_adam_zero_gradient_no_change():
    p = _scalar_net(0.7)
    state = init_adam_state(p)
    for _ in range(5):
        p, state = adam_step(p, _scalar_grad(0.0), state, lr=0.001)
    assert p.w1[0, 0] == 0.7


def test_adam_constant_gradient_nonincreasing_step():
    p = _scalar_net(0.0)
    state = init_adam_state(p)
    p1, state = adam_step(p, _scalar_grad(4.0), state, lr=0.001)
    p2, state = adam_step(p1, _scalar_grad(4.0), state, lr=0.001)
    d1 = abs(p1.w1[0, 0] - p.w1[0, 0])
    d2 = abs(p2.w1[0, 0] - p1.w1[0, 0])
    assert d2 <= d1 * 1.01


def test_adam_epoch_matches_kernel(k3_dataset):
    """One epoch of backward + the adam_step oracle equals the stacked kernel
    epoch at S = 1."""
    ds = k3_dataset
    cfg = TrainingConfig(seed=3)
    x = normalize_input(ds.points, ds.box)
    y = ds.angles.copy()
    order = np.arange(ds.n)

    p = init_params(4, 3)
    state = init_adam_state(p)
    for start in range(0, ds.n, cfg.batch_size):
        sl = order[start:start + cfg.batch_size]
        g = backward(p, x[sl], y[sl])
        p, state = adam_step(p, g, state, lr=cfg.learning_rate)

    p2 = init_params(4, 3)
    theta = np.concatenate((p2.w1.T.ravel(), p2.b1, p2.w2.T.ravel(), p2.b2))[None]
    schedule = _kernels.plan(theta, np.zeros((2,) + theta.shape), 4, [ds.n], cfg.batch_size)
    assert len(schedule[0]) == state.t
    schedule.x[0, :, :3], schedule.y[0] = x[order], y[order]
    _kernels.epoch_step(schedule, 0, cfg.learning_rate)
    a1, b1, a2, b2 = _kernels.unpack(theta[0], 4)
    np.testing.assert_allclose(a1.T, p.w1, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(b1, p.b1, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a2.T, p.w2, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(b2, p.b2, rtol=1e-12, atol=1e-15)


# --- split ------------------------------------------------------------------

def test_split_sizes_n125(box):
    ds = generate_grid(box, 5)
    cfg = TrainingConfig(seed=1)
    train_idx, val_idx = split_dataset(ds, cfg)
    # round-half-up of 6.25 is 6
    assert (len(train_idx), len(val_idx)) == (113, 6)
    assert split_sizes(ds.n, cfg) == (113, 6, 6)


def test_split_sizes_n8(box):
    ds = generate_grid(box, 2)
    train_idx, val_idx = split_dataset(ds, TrainingConfig(seed=1))
    assert (len(train_idx), len(val_idx)) == (6, 1)
    assert split_sizes(ds.n, TrainingConfig()) == (6, 1, 1)


def test_split_sizes_match_split(box):
    for k in (2, 3, 5):
        ds = generate_grid(box, k)
        cfg = TrainingConfig(seed=1)
        train_idx, val_idx = split_dataset(ds, cfg)
        assert split_sizes(ds.n, cfg)[:2] == (len(train_idx), len(val_idx))
    with pytest.raises(ValueError):
        split_sizes(2, TrainingConfig(val_fraction=0.4, test_fraction=0.4))


def test_split_deterministic_and_disjoint(box):
    ds = generate_grid(box, 3)
    cfg = TrainingConfig(seed=9)
    t1, v1 = split_dataset(ds, cfg)
    t2, v2 = split_dataset(ds, cfg)
    assert np.array_equal(t1, t2) and np.array_equal(v1, v2)
    # the test share is held out of both
    n_test = split_sizes(ds.n, cfg)[2]
    assert len(np.unique(np.concatenate([t1, v1]))) == ds.n - n_test
    t3, v3 = split_dataset(ds, TrainingConfig(seed=10))
    assert not (np.array_equal(t1, t3) and np.array_equal(v1, v3))


# --- train ------------------------------------------------------------------

def test_train_k5_reaches_low_loss(box):
    ds = generate_grid(box, 5)
    params, trace = train(ds, TrainingConfig(seed=42))
    assert trace.train_loss[-1] < 1e-2
    assert trace.epochs_run == len(trace.train_loss) == len(trace.val_loss)


def test_train_no_early_stop_runs_full_length(box):
    ds = generate_grid(box, 2)
    params, trace = train(ds, TrainingConfig(seed=1, max_epochs=40, early_stopping=False))
    assert trace.epochs_run == 40
    assert not trace.stopped_early


def test_loss_history_grows_past_1024_epochs(box):
    # the per-epoch loss buffer starts at 1024 epochs and doubles on demand;
    # the epochs before the growth keep their values
    ds = generate_grid(box, 2)
    _, long = train(ds, TrainingConfig(seed=1, max_epochs=1100, early_stopping=False))
    _, short = train(ds, TrainingConfig(seed=1, max_epochs=1024, early_stopping=False))
    assert len(long.train_loss) == len(long.val_loss) == long.epochs_run == 1100
    assert long.train_loss[:1024] == short.train_loss
    assert long.val_loss[:1024] == short.val_loss


def test_train_deterministic(box):
    ds = generate_grid(box, 3)
    cfg = TrainingConfig(seed=5, max_epochs=30)
    pa, _ = train(ds, cfg)
    pb, _ = train(ds, cfg)
    assert np.array_equal(pa.w1, pb.w1) and np.array_equal(pa.b1, pb.b1)
    assert np.array_equal(pa.w2, pb.w2) and np.array_equal(pa.b2, pb.b2)


def test_train_small_dataset_val_loss_order_one(box):
    ds = generate_grid(box, 2)
    params, trace = train(ds, TrainingConfig(seed=1))
    assert 0.01 < trace.val_loss[-1] < 20.0


def test_train_divergence_raises(box):
    ds = generate_grid(box, 2)
    with pytest.raises(NonFiniteLoss):
        train(ds, TrainingConfig(seed=1, learning_rate=1e150))


def assert_same_training(a, b):
    (pa, ta), (pb, tb) = a, b
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(pa, name), getattr(pb, name)), name
    assert ta == tb


def test_train_many_matches_train_alone(box):
    # k = 3, seeds 1..5: seeds that stop early keep their rows to the end,
    # and the 25 training rows end every epoch on a one-row batch
    ds = generate_grid(box, 3)
    cfgs = [TrainingConfig(seed=s) for s in range(1, 6)]
    many = train_lockstep([(ds, cfg) for cfg in cfgs])
    assert len({t.epochs_run for _, t in many}) > 1
    for cfg, got in zip(cfgs, many):
        assert_same_training(got, train(ds, cfg))


def test_train_many_without_early_stopping(box):
    ds = generate_grid(box, 2)
    cfgs = [TrainingConfig(seed=s, max_epochs=30, early_stopping=False) for s in (4, 9)]
    for cfg, got in zip(cfgs, train_lockstep([(ds, cfg) for cfg in cfgs])):
        assert got[1].epochs_run == 30
        assert_same_training(got, train(ds, cfg))


def test_train_many_isolates_divergence(box):
    # a mixed k = 2 / k = 3 stack, in interleaved order; at this learning rate
    # some k = 2 seeds diverge and others do not, and every k = 3 seed diverges
    grids = {k: generate_grid(box, k) for k in (2, 3)}
    jobs = [(grids[k], TrainingConfig(seed=s, learning_rate=1.6e76, max_epochs=40))
            for s in range(1, 9) for k in (2, 3)]
    alone = []
    for ds, cfg in jobs:
        try:
            alone.append(train(ds, cfg))
        except NonFiniteLoss as exc:
            alone.append(exc)
    diverged = [isinstance(a, NonFiniteLoss) for a in alone]
    assert any(diverged[0::2]) and not all(diverged[0::2]) and all(diverged[1::2])
    for a, got in zip(alone, train_lockstep(jobs)):
        if isinstance(a, NonFiniteLoss):
            assert isinstance(got, NonFiniteLoss) and str(got) == str(a)
        else:
            assert_same_training(got, a)


def test_train_lockstep_mixed_sizes_match_train_alone(box):
    # k = 2..4 with early stopping: seed 1 of k = 2 stops at the end of the
    # stack at epoch 71, seed 3 of k = 3 in its middle at epoch 140
    jobs = [(generate_grid(box, k), TrainingConfig(seed=s, max_epochs=150))
            for k in (2, 3, 4) for s in (1, 3)]
    lockstep = train_lockstep(jobs)
    assert len({t.epochs_run for _, t in lockstep}) > 2
    for (ds, cfg), got in zip(jobs, lockstep):
        assert_same_training(got, train(ds, cfg))


@pytest.mark.parametrize("early_stopping", [True, False])
def test_returned_params_best_or_final(box, early_stopping):
    # k = 3, seed 3: with early stopping the returned parameters are the
    # best-validation ones, without it the last epoch's; here the two differ
    ds = generate_grid(box, 3)
    cfg = TrainingConfig(seed=3, max_epochs=300, early_stopping=early_stopping)
    params, trace = train(ds, cfg)
    _, val = split_dataset(ds, cfg)
    val_mse = kernel_mse(params, normalize_input(ds.points, ds.box)[val], ds.angles[val])
    assert min(trace.val_loss) < trace.val_loss[-1]
    assert val_mse == (min(trace.val_loss) if early_stopping else trace.val_loss[-1])


@pytest.mark.parametrize("seeds, learning_rate, max_epochs, outcomes", [
    ((1, 2, 3, 4), 0.001, 150, {"stopped early", "ran to the end"}),
    ((1, 2, 3), 1.6e76, 40, {"stopped early", "diverged"}),
])
def test_one_plan_per_stack(monkeypatch, box, seeds, learning_rate, max_epochs, outcomes):
    # a model that stops early or diverges keeps its row, so the stack is
    # planned once however many of its models stop
    plans, plan = [], _kernels.plan
    monkeypatch.setattr(_kernels, "plan", lambda *args: plans.append(args) or plan(*args))
    jobs = [(generate_grid(box, k), TrainingConfig(seed=s, max_epochs=max_epochs,
                                                   learning_rate=learning_rate))
            for k in (2, 3) for s in seeds]
    got = {"diverged" if isinstance(r, NonFiniteLoss) else
           "stopped early" if r[1].stopped_early else "ran to the end"
           for r in neuralnet._train_stack(jobs)}
    assert got == outcomes
    assert len(plans) == 1


def test_train_many_rejects_mixed_configs(box):
    ds = generate_grid(box, 2)
    with pytest.raises(ValueError):
        train_lockstep([])
    with pytest.raises(ValueError):
        train_lockstep([(ds, TrainingConfig(seed=1)), (ds, TrainingConfig(seed=2, hidden=8))])
    with pytest.raises(ValueError):
        train_lockstep([(ds, TrainingConfig(seed=1)),
                        (generate_grid(box, 3), TrainingConfig(seed=1, max_epochs=7))])


# --- the split over two processes -------------------------------------------
# train_lockstep trains the largest-set jobs here and the rest in one forked
# child when the process may use two CPUs; the tests below pin two of them, so
# they take the split path on any machine

@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def mixed_jobs(box):
    grids = {k: generate_grid(box, k) for k in (2, 3)}
    return [(grids[k], TrainingConfig(seed=s, max_epochs=3)) for s in (1, 2) for k in (2, 3)]


def recorded_forks(monkeypatch):
    """Pids of the children ``os.fork`` starts from now on."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("seeds, learning_rate", [((1, 2), 0.001), ((3, 4), 1.6e76),
                                                  ((5, 6), 1.6e76)])
def test_split_matches_one_stack(monkeypatch, box, two_cpus, seeds, learning_rate):
    # interleaved k = 2, 3, 5; at the huge learning rate some jobs diverge and
    # a k = 2 or k = 3 job stops early, in the child's group
    grids = {k: generate_grid(box, k) for k in (2, 3, 5)}
    jobs = [(grids[k], TrainingConfig(seed=s, max_epochs=20, patience=2,
                                      learning_rate=learning_rate))
            for s in seeds for k in (2, 3, 5)]
    stack = neuralnet._train_stack(jobs)
    if learning_rate > 1:
        assert any(isinstance(r, NonFiniteLoss) for r in stack)
        assert any(not isinstance(r, NonFiniteLoss) and r[1].stopped_early for r in stack)
    forks = recorded_forks(monkeypatch)
    for want, got in zip(stack, train_lockstep(jobs), strict=True):
        if isinstance(want, NonFiniteLoss):
            assert type(got) is NonFiniteLoss and str(got) == str(want)
        else:
            assert_same_training(got, want)
    assert len(forks) == 1


def test_split_trains_the_smaller_sets_in_one_child(monkeypatch, two_cpus, mixed_jobs):
    forks = recorded_forks(monkeypatch)
    monkeypatch.setattr(neuralnet, "_train_stack",
                        lambda jobs: [(os.getpid(), ds.n) for ds, _ in jobs])
    got = train_lockstep(mixed_jobs)
    assert [n for _, n in got] == [ds.n for ds, _ in mixed_jobs]
    assert {pid for pid, n in got if n == 27} == {os.getpid()}
    assert {pid for pid, n in got if n == 8} == set(forks) and len(forks) == 1
    assert_reaped(forks[0])


def test_one_cpu_never_forks(monkeypatch, mixed_jobs):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_fork():
        raise AssertionError("os.fork called with one CPU")
    monkeypatch.setattr(os, "fork", no_fork)
    got = train_lockstep(mixed_jobs)
    assert [t.epochs_run for _, t in got] == [3] * 4


def test_one_set_size_never_forks(monkeypatch, box, two_cpus):
    # no smaller set to split off: the seeds of one k train here as one stack
    ds = generate_grid(box, 3)
    jobs = [(ds, TrainingConfig(seed=s, max_epochs=3)) for s in (1, 2, 3)]

    def no_fork():
        raise AssertionError("os.fork called with one training-set size")
    monkeypatch.setattr(os, "fork", no_fork)
    got = train_lockstep(jobs)
    assert [t.epochs_run for _, t in got] == [3] * 3


def child_only(monkeypatch, action):
    """Make ``_train_stack`` run ``action`` in a forked child and return
    placeholders in this process."""
    parent = os.getpid()

    def stack(jobs):
        if os.getpid() != parent:
            action()
        return [None] * len(jobs)
    monkeypatch.setattr(neuralnet, "_train_stack", stack)


def test_child_death_raises_runtime_error(monkeypatch, two_cpus, mixed_jobs):
    forks = recorded_forks(monkeypatch)
    child_only(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        train_lockstep(mixed_jobs)
    assert_reaped(forks[0])


@pytest.mark.parametrize("exc", [InsufficientData("child says no"), ValueError("child says no"),
                                 UnreachableGridPoint("grid point 4 at (140.0, 0.0, 69.0) mm "
                                                      "is unreachable")])
def test_child_exception_reaches_caller(monkeypatch, two_cpus, mixed_jobs, exc):
    forks = recorded_forks(monkeypatch)

    def fail():
        raise exc
    child_only(monkeypatch, fail)
    with pytest.raises(type(exc)) as info:
        train_lockstep(mixed_jobs)
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    assert_reaped(forks[0])


def package_exceptions(cls=IkannError):
    yield cls
    for sub in cls.__subclasses__():
        yield from package_exceptions(sub)


def test_every_package_exception_survives_the_pipe():
    # a child's exception reaches the caller pickled, so each one, including
    # any added later, must come back from its message with type and text
    classes = list(package_exceptions())
    assert UnreachableGridPoint in classes and NonFiniteLoss in classes
    for cls in classes:
        back = pickle.loads(pickle.dumps(cls("child says no")))
        assert type(back) is cls and str(back) == "child says no", cls.__name__


def test_caller_interrupt_kills_child(monkeypatch, two_cpus, mixed_jobs):
    forks = recorded_forks(monkeypatch)
    parent = os.getpid()

    def stack(jobs):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt
    monkeypatch.setattr(neuralnet, "_train_stack", stack)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        train_lockstep(mixed_jobs)
    assert time.monotonic() - start < 30
    assert_reaped(forks[0])


def test_best_val_not_worse_than_first_epoch(box):
    for k in (4, 5):
        ds = generate_grid(box, k)
        _, trace = train(ds, TrainingConfig(seed=2))
        assert min(trace.val_loss) <= trace.val_loss[0]


def test_piecewise_linearity(trained_k3):
    params, _ = trained_k3
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        a = rng.uniform(0, 1, 3)
        b = a + rng.normal(size=3) * 1e-3
        mid = 0.5 * (a + b)
        masks = [(params.w1 @ v + params.b1) > 0 for v in (a, mid, b)]
        if not (np.array_equal(masks[0], masks[1]) and np.array_equal(masks[1], masks[2])):
            continue
        out_a, out_mid, out_b = predict(params, [a, mid, b])
        assert np.max(np.abs(out_mid - 0.5 * (out_a + out_b))) < 1e-12
        checked += 1


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(val_fraction=0.6)
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainingConfig(seed=-1)
