"""Experiment orchestration: the samples-per-axis sweep of (k, seed) cells,
convergence-rate fitting, and CSV/JSON persistence.

Runs are deterministic per (k, seed, config). The sweep builds every k's grid
once, first, and then trains all its cells in one ``neuralnet.train_lockstep``
call. A model computes exactly what it computes alone, so the rows never
depend on how cells are grouped. Rows are emitted sorted by (k, seed).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import typing
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from . import bound as bound_mod
from .errors import IkannError, InsufficientData
from .kinematics import DEFAULT_GEOMETRY, RobotGeometry
from .neuralnet import (NetworkParams, TrainingConfig, TrainingTrace, SPLIT_ROUNDING,
                        split_sizes, train_lockstep)
from .sampler import DEFAULT_BOX, TrainingSet, WorkspaceBox, generate_grid, spacing_mm
from .trajectory import (RECTANGLE, EvalReport, TrajectorySpec, evaluate_tracking,
                         make_path, tracking_details)

MODEL_SCHEMA = "ik-ann-model/1"
DATASET_HEADER = "x1_mm,x2_mm,x3_mm,q1_rad,q2_rad,q3_rad"
TRAJECTORY_HEADER = "idx,x1_ref,x2_ref,x3_ref,x1_pred,x2_pred,x3_pred,err_mm"


def _fmt(v) -> str:
    """17-significant-digit text for floats (lossless for float64)."""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path, header: str, rows):
    """Write the header line and one line per row, each value as
    :func:`_fmt` text."""
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class HarnessConfig:
    """Everything one run needs besides (k, seed). Each cell trains with
    ``training`` whose ``seed`` is replaced by the cell's seed, and is tracked
    on ``trajectory.make_path(path_kind, box)``."""

    geom: RobotGeometry = DEFAULT_GEOMETRY
    box: WorkspaceBox = DEFAULT_BOX
    training: TrainingConfig = TrainingConfig()
    path_kind: str = RECTANGLE

    def metadata(self) -> dict:
        training = asdict(self.training)
        del training["seed"]
        return {
            "links_mm": [self.geom.l1, self.geom.l2, self.geom.l3],
            "elbow_branch": self.geom.elbow_branch,
            "box_lo_mm": list(self.box.lo),
            "box_hi_mm": list(self.box.hi),
            **training,
            "path_kind": self.path_kind,
            "path_params": make_path(self.path_kind, self.box).params,
            "split_rounding": SPLIT_ROUNDING,
            "error_spread": "std across path points per run; across-seed std in summary",
        }


@dataclass
class SweepRow:
    """One (k, seed) experiment. The fields, in order and with their types,
    are the report schema: the CSV columns and the JSON mirror's row keys."""

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


REPORT_COLUMNS = [f.name for f in fields(SweepRow)]
_COLUMN_TYPES = typing.get_type_hints(SweepRow)


def _failed_row(k: int, seed: int, exc: Exception) -> SweepRow:
    """Marker row of a failed cell: NaN in every float column, 0 epochs, an
    empty split, and the exception's class in ``path_kind``."""
    blank = {name: math.nan if t is float else t() for name, t in _COLUMN_TYPES.items()}
    blank.update(k=k, n=k ** 3, seed=seed, path_kind=f"error:{type(exc).__name__}")
    return SweepRow(**blank)


@dataclass
class SweepSummary:
    ks: list
    ns: list
    mean_err_mm: list          # per k: mean over seeds of the per-run mean
    std_err_mm: list           # per k: std across seeds (ddof=1; 0 for one seed)
    mean_est_bound_mm: list
    alpha: float
    saturation_k: int | None


@dataclass
class SweepResult:
    rows: list
    summary: SweepSummary
    models: dict | None = None   # (k, seed) -> NetworkParams when requested
    traces: dict | None = None


def _finish_cell(k: int, seed: int, ds: TrainingSet, cfg: HarnessConfig, path: TrajectorySpec,
                 params: NetworkParams, trace: TrainingTrace) -> SweepRow:
    """Track one trained model on ``path``, bound it and build its row."""
    report = evaluate_tracking(params, path, cfg.geom, cfg.box)
    breport = bound_mod.compute_bound_report(params, ds.n, cfg.box)
    d = spacing_mm(cfg.box, k)
    return SweepRow(
        k=k, n=ds.n, seed=seed,
        mean_err_mm=report.mean_mm, std_err_mm=report.std_mm,
        est_bound_mm=breport.e_est_mm, spacing_mm=d,
        err_to_spacing=report.mean_mm / d,
        gamma=breport.gamma, w_bar=breport.w_bar,
        epochs_run=trace.epochs_run,
        final_train_loss=trace.train_loss[-1],
        final_val_loss=trace.val_loss[-1],
        path_kind=cfg.path_kind,
        split_sizes="/".join(str(s) for s in split_sizes(ds.n, cfg.training)),
    )


def check_sweep(ks, seeds, training: TrainingConfig) -> tuple:
    """The distinct ks and seeds that :func:`run_sweep` runs, each sorted.
    Raises ValueError when either is empty, a k lies outside [2, 12] or
    ``training`` rejects a seed."""
    ks = sorted({operator.index(k) for k in ks})
    seeds = sorted({operator.index(s) for s in seeds})
    if not ks or not seeds:
        raise ValueError("ks and seeds must be non-empty")
    if not all(2 <= k <= 12 for k in ks):
        raise ValueError("samples per axis must lie in [2, 12]")
    for s in seeds:   # TrainingConfig owns the seed rule
        replace(training, seed=s)
    return ks, seeds


def run_sweep(ks, seeds, cfg: HarnessConfig = HarnessConfig(),
              keep_models: bool = False) -> SweepResult:
    """Run every distinct (k, seed) combination once; failed cells become
    marker rows and the sweep continues. Rows come back sorted by (k, seed).
    One cell is ``run_sweep([k], [seed], cfg).rows[0]``. Bad ks, seeds or
    ``cfg.path_kind`` raise ValueError before any grid is built."""
    ks, seeds = check_sweep(ks, seeds, cfg.training)
    path = make_path(cfg.path_kind, cfg.box)
    # one grid per k; a grid that cannot be built fails every seed of its k
    grids = {}
    for k in ks:
        try:
            grids[k] = generate_grid(cfg.box, k, cfg.geom)
        except IkannError as exc:
            grids[k] = exc
    cells = [(k, s) for k in ks for s in seeds]
    ready = [(k, s) for k, s in cells if isinstance(grids[k], TrainingSet)]
    # every cell that has a grid trains in one stack; a diverged model fails
    # only its own cell
    jobs = [(grids[k], replace(cfg.training, seed=s)) for k, s in ready]
    trained = dict(zip(ready, train_lockstep(jobs) if jobs else []))
    rows, models, traces = [], {}, {}
    for k, s in cells:
        t = trained.get((k, s), grids[k])   # or the exception of a grid not built
        if isinstance(t, Exception):
            rows.append(_failed_row(k, s, t))
        else:
            rows.append(_finish_cell(k, s, grids[k], cfg, path, *t))
            models[(k, s)], traces[(k, s)] = t
    return SweepResult(rows=rows, summary=summarize(rows),
                       models=models if keep_models else None, traces=traces)


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
    _write_csv(path, ",".join(REPORT_COLUMNS), map(astuple, rows))
    if json_path:
        doc = {
            "meta": metadata or {},
            "rows": [asdict(r) for r in rows],
            "summary": asdict(summary),
        }
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def write_training_curve(trace: TrainingTrace, path):
    _write_csv(path, "epoch,train_loss,val_loss",
               zip(itertools.count(1), trace.train_loss, trace.val_loss))


@dataclass(frozen=True)
class SavedModel:
    params: NetworkParams
    box: WorkspaceBox
    meta: dict


def save_model(params: NetworkParams, path, box: WorkspaceBox, meta: dict | None = None):
    """Persist a trained model with its normalization bounds (schema
    ik-ann-model/1). Floats are written as Python's repr, which reads back
    bitwise, -0.0 included."""
    doc = {
        "schema": MODEL_SCHEMA,
        "hidden": params.hidden,
        "activation": "relu",
        "w1": params.w1.tolist(),
        "b1": params.b1.tolist(),
        "w2": params.w2.tolist(),
        "b2": params.b2.tolist(),
        "input_min": box.lo.tolist(),
        "input_max": box.hi.tolist(),
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_model(path) -> SavedModel:
    """Read a model written by :func:`save_model`; raises ValueError naming
    the file and the bad key when the file does not hold such a model."""
    with open(path) as fh:
        # one handler names the file, whatever the read or parse rejects:
        # bad UTF-8, an integer too long to convert, nesting too deep
        try:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"not a JSON file ({exc})") from None
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
            if doc.get("schema") != MODEL_SCHEMA:
                raise ValueError(f"expected schema {MODEL_SCHEMA!r}, got {doc.get('schema')!r}")
            meta = doc.get("meta", {})
            if not isinstance(meta, dict):
                raise ValueError("key 'meta' must be a JSON object")
            arrays = {}
            for key in ("w1", "b1", "w2", "b2", "input_min", "input_max"):
                if key not in doc:
                    raise ValueError(f"missing key {key!r}")
                try:
                    arrays[key] = np.array(doc[key], dtype=float)
                except (TypeError, ValueError):
                    raise ValueError(f"key {key!r} is not an array of numbers") from None
            params = NetworkParams(arrays["w1"], arrays["b1"], arrays["w2"], arrays["b2"])
            box = WorkspaceBox(lo=arrays["input_min"], hi=arrays["input_max"])
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    return SavedModel(params=params, box=box, meta=meta)


def export_dataset(ds: TrainingSet, path):
    _write_csv(path, DATASET_HEADER, np.hstack([ds.points, ds.angles]).tolist())


def export_trajectory(traj: TrajectorySpec, model, geom: RobotGeometry,
                      box: WorkspaceBox, path) -> EvalReport:
    """Write per-point reference/prediction/error CSV; returns the EvalReport."""
    x_hat, err = tracking_details(model, traj, geom, box)
    _write_csv(path, TRAJECTORY_HEADER,
               ([i, *ref, *pred, e] for i, (ref, pred, e)
                in enumerate(zip(traj.points.tolist(), x_hat.tolist(), err.tolist()))))
    return EvalReport.from_errors(err)
