"""Per-layer metrics: which public functions get spans, what the spans add up
to, and fixed-size probes of single layers.

Every metric is reported in every traced run, so the traced output has the
same keys on every workload; a span metric reads 0 on a workload that never
calls that function. Span metrics are per traced round. The names and units
are declared in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
from tracing import self_times


def _train_counts(args, kwargs, result):
    ds = args[0] if args else kwargs["ds"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    n_train = oracle.split_sizes(ds.n, cfg.val_fraction, cfg.test_fraction)[0]
    epochs = result[1].epochs_run
    return {"epochs": epochs,
            "steps": epochs * oracle.steps_per_epoch(n_train, cfg.batch_size)}


def _rows(args, kwargs, result):
    return {"points": len(result)}


def _grid_points(args, kwargs, result):
    return {"points": result.n}


# (module, public function, work counter)
TARGETS = [
    ("ikann.neuralnet", "train", _train_counts),
    ("ikann.neuralnet", "predict", _rows),
    ("ikann.kinematics", "forward_kinematics_batch", _rows),
    ("ikann.sampler", "generate_grid", _grid_points),
    ("ikann.trajectory", "evaluate_tracking", None),
    ("ikann.bound", "compute_bound_report", None),
    ("ikann.harness", "run_sweep", None),
    ("ikann.harness", "emit_report", None),
    ("ikann.harness", "save_model", None),
    ("ikann.harness", "load_model", None),
    ("ikann.harness", "export_trajectory", None),
    ("ikann.harness", "export_dataset", None),
]

MODULES = ("cli", "harness", "neuralnet", "sampler", "trajectory", "bound", "kinematics")
CLI_COMMANDS = ("dataset", "train", "eval", "bound", "sweep")
HARNESS_IO = ("emit_report", "save_model", "load_model", "export_trajectory", "export_dataset")

def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(spans, rounds: int) -> dict:
    """Per-round totals, per-call times and per-module self time."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    own = self_times(spans)

    def dur(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    steps = attr("neuralnet.train", "steps")
    m = {
        "neuralnet.train.calls": calls("neuralnet.train") / rounds,
        "neuralnet.train.epochs": attr("neuralnet.train", "epochs") / rounds,
        "neuralnet.train.steps": steps / rounds,
        "neuralnet.train.s": dur("neuralnet.train") / rounds,
        "neuralnet.train.us_per_step": 1e6 * _ratio(dur("neuralnet.train"), steps),
        "harness.run_sweep.self_s":
            sum(own[s["id"]] for s in by_name.get("harness.run_sweep", ())) / rounds,
        "sampler.generate_grid.s": dur("sampler.generate_grid") / rounds,
        "sampler.generate_grid.points_per_s":
            _ratio(attr("sampler.generate_grid", "points"), dur("sampler.generate_grid")),
        "trace.spans": len(spans) / rounds,
    }
    for f in HARNESS_IO:
        name = f"harness.{f}"
        m[f"{name}.ms"] = 1e3 * _ratio(dur(name), calls(name))
    for c in CLI_COMMANDS:
        name = f"cli.{c}"
        m[f"{name}_s"] = _ratio(dur(name), calls(name))
    for name in ("trajectory.evaluate_tracking", "bound.compute_bound_report"):
        m[f"{name}.calls"] = calls(name) / rounds
        m[f"{name}.ms_per_call"] = 1e3 * _ratio(dur(name), calls(name))
    for module in MODULES:
        m[f"{module}.self_s"] = sum(own[s["id"]] for s in spans
                                    if s["name"].split(".", 1)[0] == module) / rounds
    return m


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# early stopping off, so the step count is fixed: k -> epochs
TRAIN_PROBE_EPOCHS = {2: 1000, 5: 150, 8: 40}
# the n = 216 grid; bench_kernels.py timed 50 epochs of it
EPOCH_PROBE_K, EPOCH_PROBE_EPOCHS = 6, 50
PROBE_REPEATS = 3
# predict probes use this model from models/
PROBE_MODEL = "k8_seed1.json"
IMPORT_PROBES = 5


def probes(seed: int, model_path: str, python_env: dict) -> dict:
    """Single layers at fixed sizes, through public functions only."""
    from ikann.harness import load_model
    from ikann.kinematics import (DEFAULT_GEOMETRY, forward_kinematics_batch,
                                  inverse_kinematics)
    from ikann.neuralnet import TrainingConfig, predict, train
    from ikann.sampler import DEFAULT_BOX, generate_grid

    m = {}
    for k, epochs in TRAIN_PROBE_EPOCHS.items():
        ds = generate_grid(DEFAULT_BOX, k)
        cfg = TrainingConfig(seed=seed, max_epochs=epochs, early_stopping=False)
        steps = epochs * oracle.steps_per_epoch(oracle.split_sizes(ds.n)[0])
        m[f"neuralnet.train.k{k}.us_per_step"] = \
            1e6 * _median_time(lambda: train(ds, cfg), PROBE_REPEATS) / steps
    ds = generate_grid(DEFAULT_BOX, EPOCH_PROBE_K)
    cfg = TrainingConfig(seed=seed, max_epochs=EPOCH_PROBE_EPOCHS, early_stopping=False)
    m[f"neuralnet.train.k{EPOCH_PROBE_K}.epoch_ms"] = \
        1e3 * _median_time(lambda: train(ds, cfg), PROBE_REPEATS) / EPOCH_PROBE_EPOCHS

    rng = np.random.default_rng([seed, 7])
    params = load_model(model_path).params
    for label, n, calls in (("n200", 200, 500), ("n100k", 100_000, 5)):
        x = rng.uniform(0.0, 1.0, (n, 3))
        t = _median_time(lambda: [predict(params, x) for _ in range(calls)], PROBE_REPEATS)
        m[f"neuralnet.predict.{label}.points_per_s"] = n * calls / t

    box = DEFAULT_BOX
    pts = box.lo + rng.uniform(0.0, 1.0, (5000, 3)) * box.span
    t = _median_time(lambda: [inverse_kinematics(p, DEFAULT_GEOMETRY) for p in pts],
                     PROBE_REPEATS)
    m["kinematics.inverse_kinematics.points_per_s"] = len(pts) / t
    q = np.array([inverse_kinematics(p, DEFAULT_GEOMETRY) for p in pts])
    q = np.tile(q, (20, 1))
    t = _median_time(lambda: forward_kinematics_batch(q, DEFAULT_GEOMETRY), PROBE_REPEATS)
    m["kinematics.forward_kinematics_batch.points_per_s"] = len(q) / t

    code = ("import time; t0 = time.perf_counter(); import ikann.cli; "
            "print(time.perf_counter() - t0)")
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=python_env, check=True,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             text=True, timeout=60).stdout
        samples.append(float(out.split()[-1]))
    m["cli.import_s"] = statistics.median(samples)
    return m
