from dataclasses import dataclass

import numpy as np
import pytest

from ikann import _kernels
from ikann._kernels import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from ikann.kinematics import DEFAULT_GEOMETRY
from ikann.neuralnet import Gradients, NetworkParams, TrainingConfig, predict, train
from ikann.sampler import DEFAULT_BOX, generate_grid


def loss(p, x_norm, q_target):
    """MSE of the network output over the batch and over the 3 output
    components, in rad^2, computed from ``predict``; the function that
    ``fd_gradient`` differences."""
    err = predict(p, x_norm) - np.atleast_2d(np.asarray(q_target, dtype=float))
    return float(np.mean(err * err))


def fd_gradient(p, x, y, h=1e-6):
    """Central finite-difference gradient of the loss; the independent oracle
    for backprop checks."""
    out = {}
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(p, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            fields = {n: getattr(p, n).copy() for n in ("w1", "b1", "w2", "b2")}
            fields[name][idx] += h
            lp = loss(NetworkParams(**fields), x, y)
            fields[name][idx] -= 2 * h
            lm = loss(NetworkParams(**fields), x, y)
            g[idx] = (lp - lm) / (2 * h)
        out[name] = g
    return Gradients(**out)


def jacobian_at(p, x_norm):
    """Network Jacobian at one point: J[k, i] = sum_j w2[k,j] mask_j w1[j,i],
    where mask_j is 1 iff hidden unit j has positive pre-activation; the
    oracle for the soundness of the global Jacobian bounds."""
    x = np.asarray(x_norm, dtype=float)
    mask = (p.w1 @ x + p.b1) > 0.0
    return (p.w2 * mask) @ p.w1


@dataclass
class AdamState:
    m: Gradients
    v: Gradients
    t: int = 0


def init_adam_state(p):
    zeros = lambda: Gradients(np.zeros_like(p.w1), np.zeros_like(p.b1),
                              np.zeros_like(p.w2), np.zeros_like(p.b2))
    return AdamState(m=zeros(), v=zeros(), t=0)


def adam_step(p, grads, state, lr, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
    """One Adam update with bias correction on one model's NetworkParams;
    returns (params, state). The per-parameter oracle for the stacked Adam
    epoch in ``ikann._kernels``."""
    t = state.t + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    new_p, new_m, new_v = {}, {}, {}
    for name in ("w1", "b1", "w2", "b2"):
        g = getattr(grads, name)
        m = beta1 * getattr(state.m, name) + (1.0 - beta1) * g
        v = beta2 * getattr(state.v, name) + (1.0 - beta2) * (g * g)
        new_m[name], new_v[name] = m, v
        new_p[name] = getattr(p, name) - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return NetworkParams(**new_p), AdamState(m=Gradients(**new_m), v=Gradients(**new_v), t=t)


class InOrder:
    """A stand-in for a row's shuffle Generator: its ``permuted`` leaves the
    tile as it is, so the row takes its training samples in index order in
    every epoch."""

    def permuted(self, tile, axis, out):
        return out


def in_order_plan(theta, data, hidden=16, batch_size=8, lr=0.001, mv=None):
    """``_kernels.plan`` of a stack whose row r trains on all of its samples
    ``data[r]``, an (x (n, 3), y (n, 3)) pair, in index order every epoch
    (:class:`InOrder`), with no validation samples; ``mv`` defaults to zero
    moments. Each slot of an epoch past a row's own set gathers a sample of
    NaN inputs and targets, which no row trains on, so a step or a loss sum
    that read the padding would show."""
    mv = np.zeros((2,) + theta.shape) if mv is None else mv
    nan = np.full((1, 3), np.nan)
    sets = [(x, y, np.arange(len(x)), np.arange(0), InOrder()) for x, y in data]
    x, y, *rest = sets[-1]
    sets[-1] = (np.concatenate((x, nan)), np.concatenate((y, nan)), *rest)
    schedule = _kernels.plan(theta, mv, hidden, sets, batch_size, lr)
    nan_index = sum(len(x) for x, _ in data)   # the NaN sample, after every row's data
    for r, (x, _) in enumerate(data):
        schedule.orders[:, r, len(x):] = nan_index
    return schedule


@pytest.fixture(scope="session")
def box():
    return DEFAULT_BOX


@pytest.fixture(scope="session")
def geom():
    return DEFAULT_GEOMETRY


@pytest.fixture(scope="session")
def k3_dataset():
    return generate_grid(DEFAULT_BOX, 3)


@pytest.fixture(scope="session")
def trained_k3(k3_dataset):
    """One quickly trained model shared by property tests."""
    cfg = TrainingConfig(seed=7, max_epochs=150, early_stopping=False)
    params, trace = train(k3_dataset, cfg)
    return params, trace
