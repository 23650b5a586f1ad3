"""Experiment orchestration: single runs, the samples-per-axis sweep,
convergence-rate fitting, and CSV/JSON persistence.

Runs are deterministic per (k, seed, config). The sweep builds each k's grid
once and trains all seeds of that k in lockstep (``neuralnet.train_many``);
a model trained in the stack computes exactly what it computes alone, so the
rows never depend on how cells are grouped. Rows are emitted sorted by
(k, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bound as bound_mod
from .errors import InsufficientData, UnreachableGridPoint
from .kinematics import DEFAULT_GEOMETRY, RobotGeometry
from .neuralnet import (NetworkParams, TrainingConfig, TrainingTrace, SPLIT_ROUNDING,
                        split_sizes, train, train_many)
from .sampler import DEFAULT_BOX, TrainingSet, WorkspaceBox, generate_grid, spacing_mm
from .trajectory import (HEART, RECTANGLE, EvalReport, TrajectorySpec,
                         evaluate_tracking, make_heart_path,
                         make_rectangle_path, tracking_details)

REPORT_COLUMNS = [
    "k", "n", "seed", "mean_err_mm", "std_err_mm", "est_bound_mm",
    "spacing_mm", "err_to_spacing", "gamma", "w_bar", "epochs_run",
    "final_train_loss", "final_val_loss", "path_kind", "split_sizes",
]

MODEL_SCHEMA = "ik-ann-model/1"
DATASET_HEADER = "x1_mm,x2_mm,x3_mm,q1_rad,q2_rad,q3_rad"
TRAJECTORY_HEADER = "idx,x1_ref,x2_ref,x3_ref,x1_pred,x2_pred,x3_pred,err_mm"

_REL_TOL = 1e-12


def _fmt(v) -> str:
    """17-significant-digit text for floats (lossless for float64)."""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass(frozen=True)
class HarnessConfig:
    """Everything one run needs besides (k, seed)."""

    geom: RobotGeometry = DEFAULT_GEOMETRY
    box: WorkspaceBox = DEFAULT_BOX
    hidden: int = 16
    learning_rate: float = 0.001
    batch_size: int = 8
    max_epochs: int = 500
    patience: int = 10
    min_delta: float = 1e-5
    val_fraction: float = 0.05
    test_fraction: float = 0.05
    early_stopping: bool = True
    path_kind: str = RECTANGLE
    bound_scale_mm: float | None = None
    # pin the estimate column's mean output weight to a constant instead of
    # the per-model measurement (makes est_bound ratios follow the pure
    # 1/(cuberoot(n)-1)^2 law across k)
    pinned_w_bar: float | None = None

    def training_config(self, seed: int) -> TrainingConfig:
        return TrainingConfig(
            hidden=self.hidden, learning_rate=self.learning_rate,
            batch_size=self.batch_size, max_epochs=self.max_epochs,
            patience=self.patience, min_delta=self.min_delta,
            val_fraction=self.val_fraction, test_fraction=self.test_fraction,
            seed=seed, early_stopping=self.early_stopping)

    def make_path(self) -> TrajectorySpec:
        if self.path_kind == RECTANGLE:
            return make_rectangle_path(self.box)
        if self.path_kind == HEART:
            return make_heart_path()
        raise ValueError(f"unknown path kind {self.path_kind!r}")

    def metadata(self) -> dict:
        return {
            "links_mm": [self.geom.l1, self.geom.l2, self.geom.l3],
            "elbow_branch": self.geom.elbow_branch,
            "box_lo_mm": list(self.box.lo),
            "box_hi_mm": list(self.box.hi),
            "hidden": self.hidden,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "min_delta": self.min_delta,
            "val_fraction": self.val_fraction,
            "test_fraction": self.test_fraction,
            "early_stopping": self.early_stopping,
            "path_kind": self.path_kind,
            "path_params": self.make_path().params,
            "bound_scale_mm": self.bound_scale_mm,
            "pinned_w_bar": self.pinned_w_bar,
            "split_rounding": SPLIT_ROUNDING,
            "error_spread": "std across path points per run; across-seed std in summary",
        }


@dataclass
class SweepRow:
    """One (k, seed) experiment; the 15 report-CSV columns."""

    k: int
    n: int
    seed: int
    mean_err_mm: float
    std_err_mm: float
    est_bound_mm: float
    spacing_mm: float
    err_to_spacing: float
    gamma: float
    w_bar: float
    epochs_run: int
    final_train_loss: float
    final_val_loss: float
    path_kind: str
    split_sizes: str

    @property
    def failed(self) -> bool:
        return self.path_kind.startswith("error:")

    def validate(self, rescale_factor_mm: float | None = None):
        """Check the row invariants; pass the mm rescale factor when known to
        pin est_bound_mm against the bound formula exactly."""
        if self.failed:
            return
        if self.n != self.k ** 3:
            raise ValueError(f"n={self.n} is not k^3 for k={self.k}")
        if abs(self.err_to_spacing - self.mean_err_mm / self.spacing_mm) \
                > _REL_TOL * max(1.0, abs(self.err_to_spacing)):
            raise ValueError("err_to_spacing inconsistent with mean_err_mm/spacing_mm")
        norm = bound_mod.sample_bound(self.n, self.w_bar)
        if rescale_factor_mm is not None:
            expected = norm * rescale_factor_mm
            if abs(self.est_bound_mm - expected) > _REL_TOL * max(1.0, expected):
                raise ValueError("est_bound_mm inconsistent with the bound formula")
        elif not (math.isfinite(self.est_bound_mm) and self.est_bound_mm >= 0.0 and norm > 0.0):
            raise ValueError("est_bound_mm must be a finite nonnegative rescale of the bound")

    def to_csv_line(self) -> str:
        vals = [self.k, self.n, self.seed, self.mean_err_mm, self.std_err_mm,
                self.est_bound_mm, self.spacing_mm, self.err_to_spacing,
                self.gamma, self.w_bar, self.epochs_run,
                self.final_train_loss, self.final_val_loss,
                self.path_kind, self.split_sizes]
        return ",".join(_fmt(v) for v in vals)

    @classmethod
    def from_csv_fields(cls, fields_: list) -> "SweepRow":
        k, n, seed = int(fields_[0]), int(fields_[1]), int(fields_[2])
        floats = [float(f) for f in fields_[3:10]]
        return cls(k=k, n=n, seed=seed,
                   mean_err_mm=floats[0], std_err_mm=floats[1],
                   est_bound_mm=floats[2], spacing_mm=floats[3],
                   err_to_spacing=floats[4], gamma=floats[5], w_bar=floats[6],
                   epochs_run=int(fields_[10]),
                   final_train_loss=float(fields_[11]),
                   final_val_loss=float(fields_[12]),
                   path_kind=fields_[13], split_sizes=fields_[14])


@dataclass
class SweepSummary:
    ks: list
    ns: list
    mean_err_mm: list          # per k: mean over seeds of the per-run mean
    std_err_mm: list           # per k: std across seeds (ddof=1; 0 for one seed)
    mean_est_bound_mm: list
    alpha: float
    saturation_k: int | None

    def as_dict(self) -> dict:
        return {
            "ks": self.ks, "ns": self.ns,
            "mean_err_mm": self.mean_err_mm, "std_err_mm": self.std_err_mm,
            "mean_est_bound_mm": self.mean_est_bound_mm,
            "alpha": self.alpha, "saturation_k": self.saturation_k,
        }


@dataclass
class CellResult:
    row: SweepRow
    params: NetworkParams | None
    trace: TrainingTrace | None


@dataclass
class SweepResult:
    rows: list
    summary: SweepSummary
    models: dict | None = None   # (k, seed) -> NetworkParams when requested
    traces: dict | None = None


def _finish_cell(k: int, seed: int, ds: TrainingSet, cfg: HarnessConfig,
                 params: NetworkParams, trace: TrainingTrace) -> CellResult:
    """Track and bound one trained model and build its row."""
    report = evaluate_tracking(params, cfg.make_path(), cfg.geom, cfg.box)
    breport = bound_mod.compute_bound_report(params, ds.n, cfg.box,
                                             cfg.bound_scale_mm, cfg.pinned_w_bar)
    d = spacing_mm(cfg.box, k)
    row = SweepRow(
        k=k, n=ds.n, seed=seed,
        mean_err_mm=report.mean_mm, std_err_mm=report.std_mm,
        est_bound_mm=breport.e_est_mm, spacing_mm=d,
        err_to_spacing=report.mean_mm / d,
        gamma=breport.gamma, w_bar=breport.w_bar,
        epochs_run=trace.epochs_run,
        final_train_loss=trace.train_loss[-1],
        final_val_loss=trace.val_loss[-1],
        path_kind=cfg.path_kind,
        split_sizes="/".join(str(s) for s in split_sizes(ds.n, cfg.training_config(seed))),
    )
    return CellResult(row=row, params=params, trace=trace)


def _check_ks(ks):
    if not all(2 <= k <= 12 for k in ks):
        raise ValueError("samples per axis must lie in [2, 12]")


def run_experiment(k: int, seed: int, cfg: HarnessConfig = HarnessConfig()) -> SweepRow:
    """Grid -> train -> track -> bound for one (k, seed); returns the row."""
    _check_ks([k])
    ds = generate_grid(cfg.box, k, cfg.geom)
    params, trace = train(ds, cfg.training_config(seed))
    return _finish_cell(k, seed, ds, cfg, params, trace).row


def _failed_row(k: int, seed: int, cfg: HarnessConfig, exc: Exception) -> SweepRow:
    nan = float("nan")
    return SweepRow(k=k, n=k ** 3, seed=seed, mean_err_mm=nan, std_err_mm=nan,
                    est_bound_mm=nan, spacing_mm=nan, err_to_spacing=nan,
                    gamma=nan, w_bar=nan, epochs_run=0,
                    final_train_loss=nan, final_val_loss=nan,
                    path_kind=f"error:{type(exc).__name__}", split_sizes="")


def run_sweep(ks, seeds, cfg: HarnessConfig = HarnessConfig(),
              keep_models: bool = False) -> SweepResult:
    """Run every (k, seed) combination; failed cells become marker rows and the
    sweep continues. Rows come back sorted by (k, seed)."""
    ks, seeds = list(ks), list(seeds)
    if not ks or not seeds:
        raise ValueError("ks and seeds must be non-empty")
    _check_ks(ks)
    cells = [(k, s) for k in sorted(ks) for s in sorted(seeds)]
    group = sorted(set(seeds))
    results = {}
    for k in sorted(set(ks)):
        # one grid per k, all seeds in lockstep; an unreachable grid fails
        # every seed of k, a diverged model only its own cell
        try:
            ds = generate_grid(cfg.box, k, cfg.geom)
            trained = train_many(ds, [cfg.training_config(s) for s in group])
        except UnreachableGridPoint as exc:
            trained = [exc] * len(group)
        for s, t in zip(group, trained):
            if isinstance(t, Exception):
                results[(k, s)] = CellResult(row=_failed_row(k, s, cfg, t), params=None, trace=None)
            else:
                results[(k, s)] = _finish_cell(k, s, ds, cfg, *t)

    rows = [results[c].row for c in cells]
    summary = summarize(rows)
    models = {c: results[c].params for c in cells if results[c].params is not None} \
        if keep_models else None
    traces = {c: results[c].trace for c in cells if results[c].trace is not None}
    return SweepResult(rows=rows, summary=summary, models=models, traces=traces)


def fit_convergence_rate(rows) -> float:
    """Exponent alpha of the empirical error power law: minus the least-squares
    slope of log(mean error) against log(n), using per-n means across seeds."""
    by_n = {}
    for r in rows:
        if not r.failed and math.isfinite(r.mean_err_mm) and r.mean_err_mm > 0:
            by_n.setdefault(r.n, []).append(r.mean_err_mm)
    if len(by_n) < 3:
        raise InsufficientData(f"need >= 3 distinct sample counts, got {len(by_n)}")
    ns = sorted(by_n)
    errs = [float(np.mean(by_n[n])) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    return float(-slope)


# A step from k to k+1 that shrinks the mean error by less than this fraction
# counts as saturated.
SATURATION_STEP = 0.15


def summarize(rows) -> SweepSummary:
    ok = [r for r in rows if not r.failed and math.isfinite(r.mean_err_mm)]
    ks = sorted({r.k for r in ok})
    means, stds, ests = [], [], []
    for k in ks:
        per_seed = [r.mean_err_mm for r in ok if r.k == k]
        means.append(float(np.mean(per_seed)))
        stds.append(float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else 0.0)
        ests.append(float(np.mean([r.est_bound_mm for r in ok if r.k == k])))
    try:
        alpha = fit_convergence_rate(ok)
    except InsufficientData:
        alpha = float("nan")

    saturation = None
    if len(ks) >= 2:
        improvements = [(means[i] - means[i + 1]) / means[i] for i in range(len(ks) - 1)]
        for i, k in enumerate(ks):
            if all(imp < SATURATION_STEP for imp in improvements[i:]):
                saturation = k
                break
    return SweepSummary(ks=ks, ns=[k ** 3 for k in ks], mean_err_mm=means,
                        std_err_mm=stds, mean_est_bound_mm=ests,
                        alpha=alpha, saturation_k=saturation)


# ---------------------------------------------------------------------------
# persistence

def emit_report(rows, summary: SweepSummary, path, json_path=None, metadata: dict | None = None):
    """Write the sweep CSV (and optional JSON mirror with summary/metadata)."""
    lines = [",".join(REPORT_COLUMNS)]
    lines += [r.to_csv_line() for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if json_path:
        doc = {
            "meta": metadata or {},
            "rows": [asdict(r) for r in rows],
            "summary": summary.as_dict(),
        }
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def load_report(path) -> list:
    """Read a sweep CSV back into validated rows."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty report file")
    if lines[0] != ",".join(REPORT_COLUMNS):
        raise ValueError(f"{path}: unexpected report header")
    rows = []
    for ln in lines[1:]:
        row = SweepRow.from_csv_fields(ln.split(","))
        row.validate()
        rows.append(row)
    return rows


def write_training_curve(trace: TrainingTrace, path):
    lines = ["epoch,train_loss,val_loss"]
    for i, (tl, vl) in enumerate(zip(trace.train_loss, trace.val_loss), start=1):
        lines.append(f"{i},{_fmt(tl)},{_fmt(vl)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_17g(obj) -> str:
    """JSON text with floats at 17 significant digits (bitwise round-trip)."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return _json_17g(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_17g(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_17g(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass(frozen=True)
class SavedModel:
    params: NetworkParams
    input_min: np.ndarray
    input_max: np.ndarray
    meta: dict

    @property
    def box(self) -> WorkspaceBox:
        return WorkspaceBox(lo=self.input_min, hi=self.input_max)


def save_model(params: NetworkParams, path, box: WorkspaceBox, meta: dict | None = None):
    """Persist a trained model with its normalization bounds (schema
    ik-ann-model/1; floats at 17 significant digits)."""
    doc = {
        "schema": MODEL_SCHEMA,
        "hidden": params.hidden,
        "activation": "relu",
        "w1": params.w1,
        "b1": params.b1,
        "w2": params.w2,
        "b2": params.b2,
        "input_min": box.lo,
        "input_max": box.hi,
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        fh.write(_json_17g(doc) + "\n")


def load_model(path) -> SavedModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"{path}: expected schema {MODEL_SCHEMA!r}, got {doc.get('schema')!r}")
    params = NetworkParams(
        w1=np.array(doc["w1"], dtype=float),
        b1=np.array(doc["b1"], dtype=float),
        w2=np.array(doc["w2"], dtype=float),
        b2=np.array(doc["b2"], dtype=float),
    )
    return SavedModel(params=params,
                      input_min=np.array(doc["input_min"], dtype=float),
                      input_max=np.array(doc["input_max"], dtype=float),
                      meta=doc.get("meta", {}))


def export_dataset(ds: TrainingSet, path):
    lines = [DATASET_HEADER]
    for p, q in zip(ds.points, ds.angles):
        lines.append(",".join(_fmt(float(v)) for v in (*p, *q)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_dataset(path):
    """Read back an exported grid; returns (points, angles) arrays."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    if lines[0] != DATASET_HEADER:
        raise ValueError(f"{path}: unexpected dataset header")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return data[:, :3], data[:, 3:]


def export_trajectory(traj: TrajectorySpec, model, geom: RobotGeometry,
                      box: WorkspaceBox, path) -> EvalReport:
    """Write per-point reference/prediction/error CSV; returns the EvalReport."""
    _, x_hat, err = tracking_details(model, traj, geom, box)
    lines = [TRAJECTORY_HEADER]
    for i, (ref, pred, e) in enumerate(zip(traj.points, x_hat, err)):
        vals = [i, *(float(v) for v in ref), *(float(v) for v in pred), float(e)]
        lines.append(",".join(_fmt(v) for v in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EvalReport(per_point_error_mm=err, mean_mm=float(err.mean()),
                      std_mm=float(err.std()), max_mm=float(err.max()),
                      n_points=len(err))
