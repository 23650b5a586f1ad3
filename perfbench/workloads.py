"""The three workloads. Each sets up in its constructor, runs one timed round
per :meth:`round` call, and checks the program's outputs in :meth:`check`
against the oracle or a property the method must have.

A round returns (outputs, failed operations); outputs from every round must
be identical, since each operation is deterministic in its inputs.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import oracle

MM_TOL = 1e-9          # mm, for positions replayed through FK
REL_TOL_FORMULA = 1e-12
REL_TOL_TRACKING = 1e-9


def _span(recorder, name):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _same_value(a, b) -> bool:
    """The JSON mirror may hold a CSV field as text or as a number."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return str(a) == str(b)
    return x == y or (x != x and y != y)


class Workload:
    name = ""
    ops_per_round = 0
    # True when the timed work runs in child processes, which then sample the
    # CPU speed themselves (see speed.Sampler)
    runs_children = False
    sampler = None

    def __init__(self, seed: int, workdir: str, bench_dir: str, python_env: dict):
        import ikann.cli  # noqa: F401  (the program's import is part of set-up)
        self.seed = seed
        self.workdir = workdir
        self.bench_dir = bench_dir
        self.python_env = python_env
        self.failures = []

    def failure(self, what: str):
        """Log an operation that raised, with its traceback."""
        text = f"{what}: {traceback.format_exc(limit=3)}"
        self.failures.append(text)
        print(text, file=sys.stderr)

    def path(self, name):
        return os.path.join(self.workdir, name)


class SweepDefault(Workload):
    """The default sweep, k = 2..8 by seeds 1..5, with CSV and JSON report."""

    name = "sweep-default"
    KS = tuple(range(2, 9))
    SEEDS = tuple(range(1, 6))
    ops_per_round = len(KS) * len(SEEDS)
    # cells re-trained alone through the train command, picked by the seed
    CHECK_KS = (2, 3, 4)
    CHECK_CELLS = 2

    def __init__(self, *args):
        super().__init__(*args)
        import ikann.cli
        self.cli = ikann.cli
        self.argv = ["sweep", "--report", self.path("report.csv"),
                     "--json", self.path("report.json")]
        candidates = [(k, s) for k in self.CHECK_KS for s in self.SEEDS]
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(len(candidates), self.CHECK_CELLS, replace=False)
        self.check_cells = [candidates[i] for i in sorted(picks)]

    def round(self, recorder):
        with contextlib.redirect_stdout(io.StringIO()), _span(recorder, "cli.sweep"):
            code = self.cli.main(self.argv)
        if code != 0:
            return None, self.ops_per_round
        with open(self.path("report.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        return rows, sum(1 for r in rows if r["path_kind"].startswith("error:"))

    def digest(self, outputs):
        with open(self.path("report.csv"), "rb") as fh:
            return _digest(fh.read())

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_SELF)

    def untraced_layer_metrics(self, rows, times):
        # Adam updates, counted from the report's epochs_run and split_sizes
        steps = sum(int(r["epochs_run"])
                    * oracle.steps_per_epoch(int(r["split_sizes"].split("/")[0]))
                    for r in rows if not r["path_kind"].startswith("error:"))
        return {"train_steps_per_s": steps / statistics.fmean(times), "cli_call_s": 0.0}

    def check(self, rows) -> list:
        bad = []
        cells = [(int(r["k"]), int(r["seed"])) for r in rows]
        if cells != [(k, s) for k in self.KS for s in self.SEEDS]:
            bad.append(f"rows are not the 35 (k, seed) cells in order: {cells}")
        by_k = {}
        for r in rows:
            k = int(r["k"])
            if r["path_kind"].startswith("error:"):
                continue  # counted as a failed operation
            if r["path_kind"] != "rectangle":
                bad.append(f"k={k} seed={r['seed']}: path_kind {r['path_kind']}")
                continue
            mean, spacing = float(r["mean_err_mm"]), float(r["spacing_mm"])
            if int(r["n"]) != k ** 3:
                bad.append(f"k={k}: n={r['n']}")
            if not oracle.rel_close(spacing, oracle.spacing_mm(k), REL_TOL_FORMULA):
                bad.append(f"k={k}: spacing_mm {spacing}")
            if not oracle.rel_close(float(r["err_to_spacing"]), mean / spacing, REL_TOL_FORMULA):
                bad.append(f"k={k}: err_to_spacing {r['err_to_spacing']}")
            expected = oracle.est_bound_mm(k, float(r["w_bar"]))
            if not oracle.rel_close(float(r["est_bound_mm"]), expected, REL_TOL_FORMULA):
                bad.append(f"k={k}: est_bound_mm {r['est_bound_mm']} != {expected}")
            split = "/".join(str(v) for v in oracle.split_sizes(k ** 3))
            if r["split_sizes"] != split:
                bad.append(f"k={k}: split_sizes {r['split_sizes']} != {split}")
            by_k.setdefault(k, []).append(mean)
        means = [statistics.fmean(by_k.get(k, [float("nan")])) for k in range(2, 6)]
        if not all(a > b for a, b in zip(means, means[1:])):
            bad.append(f"mean error does not fall strictly from k=2 to 5: {means}")
        with open(self.path("report.json")) as fh:
            json_rows = json.load(fh)["rows"]
        if len(json_rows) != len(rows) or not all(
                r.keys() == j.keys() and all(_same_value(r[c], j[c]) for c in r)
                for r, j in zip(rows, json_rows)):
            bad.append("JSON report rows differ from the CSV")
        return bad + self.check_cells_alone(rows)

    def check_cells_alone(self, rows) -> list:
        """A cell trained alone by the train command tracks the rectangle as
        its sweep row says: a cell depends only on (k, seed, config)."""
        bad = []
        row_of = {(int(r["k"]), int(r["seed"])): r for r in rows}
        path = oracle.rectangle_path()
        for k, seed in self.check_cells:
            model_path = self.path(f"alone_k{k}_seed{seed}.json")
            subprocess.run([sys.executable, "-m", "ikann.cli", "--seed", str(seed), "train",
                            "--samples-per-axis", str(k), "--out", model_path],
                           env=self.python_env, check=True, stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL, timeout=120)
            model = oracle.Model.load(model_path)
            _, err = model.track(path)
            row = row_of[(k, seed)]
            if not oracle.rel_close(float(err.mean()), float(row["mean_err_mm"]),
                                    REL_TOL_TRACKING):
                bad.append(f"cell k={k} seed={seed} alone: {err.mean()} mm, "
                           f"sweep {row['mean_err_mm']}")
            if model.meta["epochs_run"] != int(row["epochs_run"]):
                bad.append(f"cell k={k} seed={seed} alone: epochs differ")
        return bad


class CliSingle(Workload):
    """One user's session, each command in its own process."""

    name = "cli-single"
    GRID_K = 12
    TRAIN_K = 8
    TRAIN_EPOCHS = 500
    ops_per_round = 5
    runs_children = True
    CALL_COMMANDS = ("dataset", "eval", "bound")

    def __init__(self, *args):
        super().__init__(*args)
        model = self.path("model.json")
        # early stopping off: every seed then trains the same number of steps
        self.commands = [
            ("dataset", ["dataset", "--samples-per-axis", str(self.GRID_K),
                         "--out", self.path("grid.csv")]),
            ("train", ["--seed", str(self.seed), "train", "--samples-per-axis",
                       str(self.TRAIN_K), "--epochs", str(self.TRAIN_EPOCHS),
                       "--no-early-stop", "--out", model]),
            ("eval", ["eval", "--model", model, "--path", "rectangle",
                      "--emit", self.path("rectangle.csv")]),
            ("eval", ["eval", "--model", model, "--path", "heart",
                      "--emit", self.path("heart.csv")]),
            ("bound", ["bound", "--model", model]),
        ]
        self.outputs = ["grid.csv", "model.json", "rectangle.csv", "heart.csv", "bound.json"]
        self.call_times = {}
        self.timed_calls = 0
        self.traced_calls = 0

    def round(self, recorder):
        failed = 0
        for label, argv in self.commands:
            if recorder is None:
                speed_path = self.path(f"speed{self.timed_calls}.json")
                self.timed_calls += 1
                cmd = [sys.executable, os.path.join(self.bench_dir, "cli_timed.py"),
                       speed_path, *argv]
            else:
                spans_path = self.path(f"spans{self.traced_calls}.json")
                self.traced_calls += 1
                cmd = [sys.executable, os.path.join(self.bench_dir, "cli_traced.py"),
                       spans_path, *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.python_env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=120)
            elapsed = time.perf_counter() - t0
            if recorder is None and os.path.exists(speed_path):
                with open(speed_path) as fh:
                    child = json.load(fh)
                self.sampler.adopt(child["kernel_s"], child["paused_s"])
                self.call_times.setdefault(label, []).append(elapsed - child["paused_s"])
            elif recorder is not None and os.path.exists(spans_path):
                with open(spans_path) as fh:
                    recorder.adopt(json.load(fh), f"p{self.traced_calls}.")
            if proc.returncode != 0:
                failed += 1
                self.failures.append(f"{label} exited {proc.returncode}: "
                                   f"{proc.stderr.decode(errors='replace')[-500:]}")
            elif label == "bound":
                with open(self.path("bound.json"), "wb") as fh:
                    fh.write(proc.stdout)
        return self.outputs, failed

    def digest(self, outputs):
        parts = []
        for name in outputs:
            with open(self.path(name), "rb") as fh:
                parts.append(fh.read())
        return _digest(*parts)

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)

    def untraced_layer_metrics(self, outputs, times):
        n_train = oracle.split_sizes(self.TRAIN_K ** 3)[0]
        steps = self.TRAIN_EPOCHS * oracle.steps_per_epoch(n_train)
        calls = [t for c in self.CALL_COMMANDS for t in self.call_times[c]]
        return {"train_steps_per_s": steps / statistics.median(self.call_times["train"]),
                "cli_call_s": statistics.median(calls)}

    def check(self, outputs) -> list:
        bad = []
        _, rows = _read_csv(self.path("grid.csv"))
        data = np.array(rows, dtype=float)
        grid = oracle.box_grid(self.GRID_K)
        if data.shape != (self.GRID_K ** 3, 6):
            bad.append(f"grid CSV has shape {data.shape}")
        else:
            if np.max(np.abs(data[:, :3] - grid)) > MM_TOL:
                bad.append("grid CSV points are not the k^3 box grid")
            miss = np.linalg.norm(oracle.fk(data[:, 3:]) - data[:, :3], axis=1).max()
            if miss >= MM_TOL:
                bad.append(f"grid labels miss their points by {miss} mm")

        model = oracle.Model.load(self.path("model.json"))
        if model.meta.get("epochs_run") != self.TRAIN_EPOCHS \
                or model.meta.get("samples_per_axis") != self.TRAIN_K \
                or model.meta.get("seed") != self.seed:
            bad.append(f"model metadata {model.meta}")
        for name, path in (("rectangle", oracle.rectangle_path()),
                           ("heart", oracle.heart_path())):
            _, rows = _read_csv(self.path(f"{name}.csv"))
            traj = np.array(rows, dtype=float)
            if traj.shape != (len(path), 8) or np.max(np.abs(traj[:, 1:4] - path)) > MM_TOL:
                bad.append(f"{name} CSV reference points differ from the path")
                continue
            reached, err = model.track(path)
            if np.max(np.abs(traj[:, 4:7] - reached)) > MM_TOL:
                bad.append(f"{name} CSV predicted positions differ from the oracle")
            if np.max(np.abs(traj[:, 7] - err)) > MM_TOL:
                bad.append(f"{name} CSV errors differ from the oracle")

        with open(self.path("bound.json")) as fh:
            report = json.load(fh)
        expected = oracle.est_bound_mm(self.TRAIN_K, model.w_bar())
        if not oracle.rel_close(report["e_est_mm"], expected, REL_TOL_FORMULA):
            bad.append(f"bound e_est_mm {report['e_est_mm']} != closed form {expected}")
        if report["n"] != self.TRAIN_K ** 3:
            bad.append(f"bound n {report['n']}")
        return bad


class Certify(Workload):
    """No training: bounds, tracking and Lipschitz checks of fixed models,
    grid labelling for k = 2..12 and an IK -> FK round trip."""

    name = "certify"
    GRID_KS = tuple(range(2, 13))
    LIPSCHITZ_PAIRS = 2000
    ROUND_TRIP_POINTS = 4000

    def __init__(self, *args):
        super().__init__(*args)
        from ikann.harness import load_model
        from ikann.kinematics import DEFAULT_GEOMETRY
        from ikann.sampler import DEFAULT_BOX
        from ikann.trajectory import make_heart_path, make_rectangle_path
        self.model_paths = sorted(glob.glob(os.path.join(self.bench_dir, "models", "*.json")))
        self.models = [load_model(p) for p in self.model_paths]
        self.ops_per_round = len(self.models) + len(self.GRID_KS) + 1
        self.geom = DEFAULT_GEOMETRY
        self.box = DEFAULT_BOX
        self.paths = {"rectangle": make_rectangle_path(DEFAULT_BOX),
                      "heart": make_heart_path()}
        rng = np.random.default_rng([self.seed, 3])
        self.pairs = rng.uniform(0.0, 1.0, (2, self.LIPSCHITZ_PAIRS, 3))
        self.box_points = oracle.BOX_LO + rng.uniform(0.0, 1.0, (self.ROUND_TRIP_POINTS, 3)) \
            * (np.array(oracle.BOX_HI) - oracle.BOX_LO)

    def round(self, recorder):
        from ikann.bound import compute_bound_report, lipschitz_gamma
        from ikann.kinematics import forward_kinematics_batch, inverse_kinematics
        from ikann.neuralnet import predict
        from ikann.sampler import generate_grid
        from ikann.trajectory import evaluate_tracking, exact_ik_model

        failed = 0
        per_model = []
        for path, saved in zip(self.model_paths, self.models):
            try:
                k = saved.meta["samples_per_axis"]
                bound = compute_bound_report(saved.params, k ** 3, saved.box)
                tracking = {name: evaluate_tracking(saved.params, traj, self.geom, saved.box)
                            for name, traj in self.paths.items()}
                gamma = lipschitz_gamma(saved.params)
                outs = [predict(saved.params, x) for x in self.pairs]
                per_model.append((bound, tracking, gamma, outs))
            except Exception:
                failed += 1
                per_model.append(None)
                self.failure(f"model {os.path.basename(path)}")
        grids = []
        for k in self.GRID_KS:
            try:
                grids.append(generate_grid(self.box, k, self.geom))
            except Exception:
                failed += 1
                grids.append(None)
                self.failure(f"grid k={k}")
        try:
            q = np.array([inverse_kinematics(p, self.geom) for p in self.box_points])
            reached = forward_kinematics_batch(q, self.geom)
            exact = exact_ik_model(self.geom)
            exact_err = {name: evaluate_tracking(exact, traj, self.geom, self.box).max_mm
                         for name, traj in self.paths.items()}
            round_trip = (q, reached, exact_err)
        except Exception:
            failed += 1
            round_trip = None
            self.failure("round trip")
        return (per_model, grids, round_trip), failed

    def digest(self, outputs):
        per_model, grids, round_trip = outputs
        parts = []
        for item in per_model:
            if item is None:
                parts.append(b"failed")
                continue
            bound, tracking, gamma, outs = item
            parts += [np.array([*bound.as_dict().values(), gamma,
                                *(t.mean_mm for t in tracking.values())]), *outs]
        for ds in grids:
            parts += [b"failed"] if ds is None else [ds.points, ds.angles]
        if round_trip is not None:
            parts += [round_trip[0], round_trip[1]]
        return _digest(*parts)

    def peak_rss_mb(self):
        return _peak_rss_mb(resource.RUSAGE_SELF)

    def untraced_layer_metrics(self, outputs, times):
        return {"train_steps_per_s": 0.0, "cli_call_s": 0.0}

    def check(self, outputs) -> list:
        bad = []
        per_model, grids, round_trip = outputs
        u_a, u_b = self.pairs
        for path, item in zip(self.model_paths, per_model):
            if item is None:
                continue
            name = os.path.basename(path)
            bound, tracking, gamma, (y_a, y_b) = item
            model = oracle.Model.load(path)
            k = model.meta["samples_per_axis"]
            if not oracle.rel_close(bound.e_est_mm, oracle.est_bound_mm(k, model.w_bar()),
                                    REL_TOL_FORMULA):
                bad.append(f"{name}: e_est_mm {bound.e_est_mm} is not the closed form")
            if not (oracle.rel_close(gamma, model.gamma(), REL_TOL_FORMULA)
                    and bound.gamma == gamma):
                bad.append(f"{name}: gamma {gamma} != {model.gamma()}")
            for ref, traj in (("rectangle", oracle.rectangle_path()),
                              ("heart", oracle.heart_path())):
                _, err = model.track(traj)
                if not oracle.rel_close(tracking[ref].mean_mm, float(err.mean()),
                                        REL_TOL_TRACKING):
                    bad.append(f"{name}: {ref} error {tracking[ref].mean_mm} != {err.mean()}")
            for u, y in ((u_a, y_a), (u_b, y_b)):
                if not np.allclose(y, model.angles_normalized(u), rtol=1e-12, atol=1e-12):
                    bad.append(f"{name}: predict differs from the oracle forward pass")
            lhs = np.linalg.norm(y_a - y_b, axis=1)
            rhs = gamma * np.linalg.norm(u_a - u_b, axis=1)
            violations = int(np.count_nonzero(lhs > rhs * (1.0 + 1e-12)))
            if violations:
                bad.append(f"{name}: {violations} Lipschitz violations of gamma={gamma}")
        for k, ds in zip(self.GRID_KS, grids):
            if ds is None:
                continue
            if ds.n != k ** 3 or np.max(np.abs(ds.points - oracle.box_grid(k))) > MM_TOL:
                bad.append(f"grid k={k} is not the k^3 box grid")
            miss = np.linalg.norm(oracle.fk(ds.angles) - ds.points, axis=1).max()
            if miss >= MM_TOL:
                bad.append(f"grid k={k}: labels miss by {miss} mm")
        if round_trip is not None:
            q, reached, exact_err = round_trip
            for label, pts in (("oracle FK", oracle.fk(q)), ("forward_kinematics_batch", reached)):
                miss = np.linalg.norm(pts - self.box_points, axis=1).max()
                if miss >= MM_TOL:
                    bad.append(f"IK -> {label} round trip misses by {miss} mm")
            for name, worst in exact_err.items():
                if worst >= MM_TOL:
                    bad.append(f"exact-IK model misses the {name} path by {worst} mm")
        return bad


WORKLOADS = {w.name: w for w in (SweepDefault, CliSingle, Certify)}
