"""From-scratch shallow ReLU regressor for the IK map: 3 inputs, one hidden
layer, 3 linear outputs. Mini-batch Adam, seeded splits and shuffles, optional
early stopping on validation loss.

All arithmetic is float64. Given identical dataset, config, and seed the
trained parameters are bitwise reproducible, whether a model is trained alone
or in lockstep with others, and in whichever process it trains.
:func:`train_lockstep` trains the models with the largest training set in the
calling process and, on a machine with two or more usable CPUs, the rest in
one forked child at the same time.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import NonFiniteLoss
from .sampler import TrainingSet, normalize_input

@dataclass(frozen=True)
class NetworkParams:
    """Weights and biases; w1 is (hidden, 3), w2 is (3, hidden)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        h = self.w1.shape[0] if self.w1.ndim else 0   # a 0-d w1 fails the shape test
        if self.w1.shape != (h, 3) or self.b1.shape != (h,) \
                or self.w2.shape != (3, h) or self.b2.shape != (3,):
            raise ValueError("inconsistent parameter shapes")
        for a in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(a)):
                raise ValueError("parameters must be finite")

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class TrainingConfig:
    hidden: int = 16
    learning_rate: float = 0.001
    batch_size: int = 8
    max_epochs: int = 500
    patience: int = 10
    min_delta: float = 1e-5
    val_fraction: float = 0.05
    test_fraction: float = 0.05
    seed: int = 0
    early_stopping: bool = True

    def __post_init__(self):
        if self.hidden < 1 or self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("hidden, batch_size, and max_epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 <= self.val_fraction < 0.5 and 0 <= self.test_fraction < 0.5):
            raise ValueError("val/test fractions must lie in [0, 0.5)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrainingTrace:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False


@dataclass
class Gradients:
    """Loss gradients, same layout as NetworkParams."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def init_params(hidden: int, seed: int) -> NetworkParams:
    """Uniform Glorot-style init, zero biases, deterministic per seed."""
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    rng = np.random.default_rng(seed)
    limit = math.sqrt(6.0 / (3 + hidden))
    w1 = rng.uniform(-limit, limit, size=(hidden, 3))
    w2 = rng.uniform(-limit, limit, size=(3, hidden))
    return NetworkParams(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(3))


def _flat_row(p: NetworkParams) -> np.ndarray:
    """The parameters as one flat row in the kernels' layout."""
    return np.concatenate((p.w1.T.ravel(), p.b1, p.w2.T.ravel(), p.b2))


def _params_from_row(theta: np.ndarray, hidden: int) -> NetworkParams:
    a1, b1, a2, b2 = _kernels.unpack(theta, hidden)
    return NetworkParams(w1=a1.T.copy(), b1=b1.copy(), w2=a2.T.copy(), b2=b2.copy())


def predict(p: NetworkParams, x_norm: np.ndarray) -> np.ndarray:
    """Batched network output for an (N, 3) array of normalized inputs."""
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x_norm, dtype=float)))
    return _kernels.forward(*_kernels.unpack(_flat_row(p), p.hidden), x)


def backward(p: NetworkParams, x_norm: np.ndarray, q_target: np.ndarray) -> Gradients:
    """Exact gradient of the batch MSE, the mean over the samples and the 3
    output components in rad^2 (ReLU subgradient at 0 is 0)."""
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(x_norm, dtype=float)))
    y = np.ascontiguousarray(np.atleast_2d(np.asarray(q_target, dtype=float)))
    _, g = _kernels.gradients(*_kernels.unpack(_flat_row(p)[None], p.hidden), x[None], y[None])
    ga1, gb1, ga2, gb2 = _kernels.unpack(g[0], p.hidden)
    return Gradients(w1=ga1.T.copy(), b1=gb1, w2=ga2.T.copy(), b2=gb2)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


SPLIT_ROUNDING = "half-up, floor of 1 sample each for val/test"


def split_sizes(n: int, cfg: TrainingConfig) -> tuple:
    """(train, val, test) sizes for n samples.

    Val and test sizes are round-half-up of fraction*n with a floor of one
    sample whenever the fraction is nonzero.
    """
    def size(frac):
        return max(1, _round_half_up(frac * n)) if frac > 0 else 0

    n_val, n_test = size(cfg.val_fraction), size(cfg.test_fraction)
    if n_val + n_test >= n:
        raise ValueError("val/test split leaves no training samples")
    return n - n_val - n_test, n_val, n_test


def split_dataset(ds: TrainingSet, cfg: TrainingConfig) -> tuple:
    """Shuffle split seeded by ``cfg.seed``: sorted (train, val) index arrays
    of :func:`split_sizes`. The test share is held out of both."""
    _, n_val, n_test = split_sizes(ds.n, cfg)
    perm = np.random.default_rng([cfg.seed, 1]).permutation(ds.n)
    return np.sort(perm[n_val + n_test:]), np.sort(perm[:n_val])


def train(ds: TrainingSet, cfg: TrainingConfig):
    """Train one model on the grid dataset per the configured recipe (see
    :func:`train_lockstep`). Returns (NetworkParams, TrainingTrace).

    Raises NonFiniteLoss if either loss leaves the finite range.
    """
    result = train_lockstep([(ds, cfg)])[0]
    if isinstance(result, NonFiniteLoss):
        raise result
    return result


def train_lockstep(jobs) -> list:
    """Train one model per (dataset, config) pair, all in lockstep.

    Inputs are normalized by the dataset box; targets stay in radians. With
    early stopping on, an epoch counts as non-improving when it fails to beat
    the previous epoch's validation loss by min_delta; after ``patience``
    consecutive non-improving epochs the model stops, and its
    best-validation parameters are returned. With early stopping off, every
    model runs ``max_epochs`` epochs and its final parameters are returned.

    The datasets may differ; the configs may differ only in ``seed``. The
    stack is sorted by training-set size, largest first, so that one stacked
    Adam step serves every model with a full batch at that point of its epoch
    (``_kernels.plan``). Each model keeps its own init, split, shuffle stream,
    Adam step count and early-stopping state, and computes exactly what it
    would alone; a model that stops keeps its row in the stack.

    When some models have smaller sets than others, this process may use two
    or more CPUs and ``os.fork`` exists, those models train in one forked
    child while this process trains the ones with the largest set; otherwise
    all train here in one stack. No step mixes two models' data, so a model's
    bits do not depend on where it trains.

    Returns one entry per pair, in order: (NetworkParams, TrainingTrace), or
    the NonFiniteLoss raised when either of that model's losses left the
    finite range.
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("training needs at least one (dataset, config) pair")
    cfg = jobs[0][1]
    if any(replace(c, seed=cfg.seed) != cfg for _, c in jobs):
        raise ValueError("configs trained in lockstep may differ only in seed")

    n_train = [split_sizes(ds.n, c)[0] for ds, c in jobs]
    top = max(n_train)
    largest, rest = [], []
    for i, n in enumerate(n_train):
        (largest if n == top else rest).append(i)
    affinity = getattr(os, "sched_getaffinity", None)
    if not rest or not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return _train_stack(jobs)
    trained = dict(zip(largest + rest, _train_in_two([jobs[i] for i in largest],
                                                      [jobs[i] for i in rest])))
    return [trained[i] for i in range(len(jobs))]


def _train_in_two(here, there) -> list:
    """``_train_stack(here) + _train_stack(there)``, with ``there`` trained at
    the same time in one forked child. The child sends its list, or the
    exception it raised, back as one pickle over a pipe. If this side raises,
    the child is killed; a child that exits without a result raises
    RuntimeError."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:   # never return into the caller's stack from the child
            os.close(read_fd)
            try:
                payload = _train_stack(there)
            except BaseException as exc:
                payload = exc
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            own = _train_stack(here)
            data = pipe.read()
    except BaseException:
        import signal   # only this path needs it; keeps it out of the import time
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise RuntimeError(f"the training child process exited with code {code} "
                           "before sending its results")
    theirs = pickle.loads(data)
    if isinstance(theirs, BaseException):
        raise theirs
    return own + theirs


def _train_stack(jobs) -> list:
    """:func:`train_lockstep` of a validated job list, every model in this
    process and in one stack."""
    cfg = jobs[0][1]
    # stack row r trains job order[r], largest training set first; every
    # per-model buffer below is indexed by row, and a row never moves
    order = sorted(range(len(jobs)), key=lambda i: -split_sizes(jobs[i][0].n, cfg)[0])
    rows = [jobs[i] for i in order]
    # each row's dataset in x_all, y_all from index start[r]; the indices below
    # are into them. x_all carries the column of ones of the kernel's inputs
    # (_kernels.plan)
    x_all = np.concatenate([np.column_stack((normalize_input(ds.points, ds.box), np.ones(ds.n)))
                            for ds, _ in rows])
    y_all = np.concatenate([ds.angles for ds, _ in rows])
    start = np.cumsum([0] + [ds.n for ds, _ in rows])
    splits = [split_dataset(ds, c) for ds, c in rows]
    train_idx = [t + s for (t, _), s in zip(splits, start)]
    val_idx = [v + s for (_, v), s in zip(splits, start)]
    n_train = [len(t) for t in train_idx]

    theta = np.stack([_flat_row(init_params(cfg.hidden, c.seed)) for _, c in rows])
    mv = np.zeros((2,) + theta.shape)   # Adam's first and second moments
    schedule = _kernels.plan(theta, mv, cfg.hidden, n_train, cfg.batch_size)
    blocks = []   # one validation call per run of equal val sizes
    for lo, hi, nv in _kernels.runs(len(i) for i in val_idx):
        if nv:
            idx = np.stack(val_idx[lo:hi])
            blocks.append((slice(lo, hi), _kernels.unpack(theta[lo:hi], cfg.hidden),
                           x_all[idx, :3], y_all[idx]))

    best = np.zeros_like(theta)
    rngs = [np.random.default_rng([c.seed, 2]) for _, c in rows]
    # the early-stopping state of every row, updated by masks once per epoch;
    # losses[e, 0 | 1, r] is row r's train | validation loss in epoch e
    best_val = np.full(len(rows), math.inf)
    prev_val = np.full(len(rows), math.inf)
    bad_epochs = np.zeros(len(rows), dtype=int)
    epochs_run = np.zeros(len(rows), dtype=int)
    stopped = np.zeros(len(rows), dtype=bool)
    running = np.ones(len(rows), dtype=bool)
    losses = np.empty((min(cfg.max_epochs, 1024), 2, len(rows)))
    # each row's shuffled training indices for a chunk of epochs, drawn in
    # one call per row: permuted in place along axis 1 of a (chunk, n) tile
    # of the indices takes the same draws from the generator as one
    # permutation per epoch. A row that stops mid-chunk has drawn its whole
    # chunk, and nothing reads the steps it takes after it stops
    chunk = schedule.chunk
    orders = np.zeros((chunk, len(rows), n_train[0]), dtype=np.intp)
    for epoch in range(cfg.max_epochs):
        if epoch == len(losses):   # grown on demand: a run may stop long before max_epochs
            losses = np.concatenate((losses, np.empty_like(losses)))
        if epoch % chunk == 0:   # a stopped row repeats its last chunk
            for r in np.flatnonzero(running).tolist():
                tile = orders[:, r, :n_train[r]]
                tile[...] = train_idx[r]
                rngs[r].permuted(tile, axis=1, out=tile)
        shuffled = orders[epoch % chunk]
        loss = losses[epoch]
        # divergence surfaces as NonFiniteLoss below; keep the overflow quiet
        with np.errstate(over="ignore", invalid="ignore"):
            np.take(x_all, shuffled, axis=0, out=schedule.x)
            np.take(y_all, shuffled, axis=0, out=schedule.y)
            loss[0] = _kernels.epoch_step(schedule, epoch, cfg.learning_rate)
            loss[1] = loss[0]
            for sl, params, x_val, y_val in blocks:
                loss[1, sl] = _kernels.mse(*params, x_val, y_val)
            epochs_run[running] = epoch + 1
            ok = running & np.isfinite(loss).all(axis=0)
            val = loss[1]
            better = ok & (val < best_val)
            best_val[better] = val[better]
            best[better] = theta[better]
            worse = ok & ~(val < prev_val - cfg.min_delta)
            bad_epochs[ok & ~worse] = 0
            bad_epochs[worse] += 1
            prev_val[ok] = val[ok]
        if cfg.early_stopping:
            stopped |= worse & (bad_epochs >= cfg.patience)
        running = ok & ~stopped
        if not running.any():
            break

    if not cfg.early_stopping:
        best = theta
    trained = []
    for r, epochs in enumerate(epochs_run.tolist()):
        # a row stops running at its first non-finite loss, so only its last can be
        train_loss, val_loss = losses[:epochs, 0, r].tolist(), losses[:epochs, 1, r].tolist()
        if math.isfinite(train_loss[-1]) and math.isfinite(val_loss[-1]):
            trained.append((_params_from_row(best[r], cfg.hidden),
                            TrainingTrace(train_loss, val_loss, epochs, bool(stopped[r]))))
        else:
            trained.append(NonFiniteLoss(f"loss diverged at epoch {epochs} "
                                         f"(train={train_loss[-1]}, val={val_loss[-1]})"))
    # the row of each job; a Python sort, since numpy's first argsort in a
    # process maps 384 KB of its sort code into memory
    return [trained[r] for r in sorted(range(len(jobs)), key=order.__getitem__)]
