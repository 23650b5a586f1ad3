"""Command-line interface.

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure
(diverged training or an unreachable grid point).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .bound import compute_bound_report
from .errors import IkannError, NonFiniteLoss, UnreachableGridPoint
from .harness import (HarnessConfig, emit_report, export_dataset,
                      export_trajectory, load_model, run_sweep, save_model,
                      write_training_curve)
from .kinematics import RobotGeometry
from .neuralnet import TrainingConfig, train
from .sampler import DEFAULT_BOX, WorkspaceBox, generate_grid
from .trajectory import HEART, RECTANGLE

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_box(text: str) -> WorkspaceBox:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 6:
        raise ValueError("--box needs 6 comma-separated values: "
                         "x1min,x1max,x2min,x2max,x3min,x3max")
    return WorkspaceBox(lo=np.array(vals[0::2]), hi=np.array(vals[1::2]))


def _parse_links(text: str) -> RobotGeometry:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 3:
        raise ValueError("--links needs 3 comma-separated lengths in mm")
    return RobotGeometry(l1=vals[0], l2=vals[1], l3=vals[2])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikann",
        description="ANN inverse kinematics for a 3-DOF arm: training, "
                    "tracking evaluation, error bounds, and sample-count sweeps.")
    parser.add_argument("--box", default=None, metavar="X1MIN,X1MAX,X2MIN,X2MAX,X3MIN,X3MAX",
                        help="workspace box in mm (default 20,80,20,80,0,60)")
    parser.add_argument("--links", default=None, metavar="L1,L2,L3",
                        help="link lengths in mm (default 70,70,70)")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model on a k^3 grid")
    p.add_argument("--samples-per-axis", type=int, required=True, metavar="K")
    p.add_argument("--hidden", type=int, default=TrainingConfig.hidden)
    p.add_argument("--epochs", type=int, default=TrainingConfig.max_epochs)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--out", required=True, metavar="MODEL.json")

    p = sub.add_parser("eval", help="evaluate a model on a reference path")
    p.add_argument("--model", required=True)
    p.add_argument("--path", choices=[RECTANGLE, HEART], default=RECTANGLE)
    p.add_argument("--emit", required=True, metavar="TRAJ.csv")

    p = sub.add_parser("bound", help="print the bound report for a model as JSON")
    p.add_argument("--model", required=True)

    p = sub.add_parser("sweep", help="run the samples-per-axis sweep")
    p.add_argument("--axis-counts", default="2,3,4,5,6,7,8", metavar="K1,K2,...")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--report", required=True, metavar="REPORT.csv")
    p.add_argument("--json", default=None, metavar="REPORT.json",
                   help="also write a JSON mirror with summary and metadata")
    p.add_argument("--curves", default=None, metavar="DIR",
                   help="write per-run training curves into DIR")
    p.add_argument("--path", choices=[RECTANGLE, HEART], default=RECTANGLE)

    p = sub.add_parser("dataset", help="export a k^3 training grid as CSV")
    p.add_argument("--samples-per-axis", type=int, required=True, metavar="K")
    p.add_argument("--out", required=True, metavar="GRID.csv")
    return parser


def _cmd_train(args, geom, box, seed):
    cfg = TrainingConfig(hidden=args.hidden, max_epochs=args.epochs, seed=seed,
                         early_stopping=not args.no_early_stop)
    ds = generate_grid(box, args.samples_per_axis, geom)
    params, trace = train(ds, cfg)
    meta = {
        "samples_per_axis": args.samples_per_axis,
        "seed": seed,
        "epochs_run": trace.epochs_run,
        "final_train_loss": trace.train_loss[-1],
        "final_val_loss": trace.val_loss[-1],
    }
    save_model(params, args.out, box, meta)
    print(f"trained k={args.samples_per_axis} (n={ds.n}) for {trace.epochs_run} epochs"
          f"{' (early stop)' if trace.stopped_early else ''}; "
          f"train MSE {trace.train_loss[-1]:.3e}, val MSE {trace.val_loss[-1]:.3e} rad^2")
    print(f"model written to {args.out}")
    return EXIT_OK


def _cmd_eval(args, geom, box_override):
    saved = load_model(args.model)
    box = box_override if box_override is not None else saved.box
    traj = HarnessConfig(geom=geom, box=box, path_kind=args.path).make_path()
    report = export_trajectory(traj, saved.params, geom, box, args.emit)
    print(f"{args.path} path, {report.n_points} points: "
          f"mean {report.mean_mm:.3f} mm, std {report.std_mm:.3f} mm, "
          f"max {report.max_mm:.3f} mm")
    print(f"trajectory written to {args.emit}")
    return EXIT_OK


def _cmd_bound(args, box_override):
    saved = load_model(args.model)
    box = box_override if box_override is not None else saved.box
    k = saved.meta.get("samples_per_axis")
    if type(k) is not int or k < 1:
        raise ValueError(f"{args.model}: model metadata lacks a positive integer "
                         "samples_per_axis; cannot size the bound")
    report = compute_bound_report(saved.params, k ** 3, box)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


def _cmd_sweep(args, geom, box, seed):
    ks = sorted({int(v) for v in args.axis_counts.split(",")})   # the ks run_sweep runs
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    base = 1 if seed is None else seed
    seeds = list(range(base, base + args.repeats))
    cfg = HarnessConfig(geom=geom, box=box, path_kind=args.path)
    result = run_sweep(ks, seeds, cfg)

    if args.curves:
        curves_dir = Path(args.curves)
        curves_dir.mkdir(parents=True, exist_ok=True)
        for (k, s), trace in sorted(result.traces.items()):
            write_training_curve(trace, curves_dir / f"k{k}_seed{s}.csv")

    metadata = cfg.metadata()
    metadata.update({"axis_counts": ks, "seeds": seeds})
    emit_report(result.rows, result.summary, args.report,
                json_path=args.json, metadata=metadata)

    s = result.summary
    for k, n, e, sd, est in zip(s.ks, s.ns, s.mean_err_mm, s.std_err_mm, s.mean_est_bound_mm):
        print(f"k={k} n={n:4d}: err {e:6.2f} +/- {sd:.2f} mm, estimate {est:6.2f} mm")
    print(f"alpha = {s.alpha:.3f}, saturation at k = {s.saturation_k}")
    failed = [r for r in result.rows if r.failed]
    if failed:
        print(f"{len(failed)} run(s) failed; see marker rows in the report")
    print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_dataset(args, geom, box):
    ds = generate_grid(box, args.samples_per_axis, geom)
    export_dataset(ds, args.out)
    print(f"{ds.n} grid pairs written to {args.out}")
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning, not the default two with package source
        warnings.showwarning = _print_warning
        try:
            geom = _parse_links(args.links) if args.links else RobotGeometry()
            box = _parse_box(args.box) if args.box else None
            seed = args.seed if args.seed is not None else 42

            if args.command == "train":
                return _cmd_train(args, geom, box or DEFAULT_BOX, seed)
            if args.command == "eval":
                return _cmd_eval(args, geom, box)
            if args.command == "bound":
                return _cmd_bound(args, box)
            if args.command == "sweep":
                return _cmd_sweep(args, geom, box or DEFAULT_BOX, args.seed)
            if args.command == "dataset":
                return _cmd_dataset(args, geom, box or DEFAULT_BOX)
            raise ValueError(f"unknown command {args.command!r}")
        except (UnreachableGridPoint, NonFiniteLoss) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except (ValueError, IkannError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
