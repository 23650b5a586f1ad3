import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ikann.cli import _build_parser, main
from ikann.harness import load_model, save_model
from ikann.neuralnet import TrainingConfig, init_params


def test_dataset_command(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["dataset", "--samples-per-axis", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1_mm,x2_mm,x3_mm,q1_rad,q2_rad,q3_rad"
    assert len(lines) == 28
    assert "27 grid pairs" in capsys.readouterr().out


def test_train_eval_bound_pipeline(tmp_path, capsys):
    model = tmp_path / "model.json"
    rc = main(["--seed", "3", "train", "--samples-per-axis", "3",
               "--hidden", "8", "--epochs", "60", "--out", str(model)])
    assert rc == 0
    saved = load_model(model)
    assert saved.params.hidden == 8
    assert saved.meta["seed"] == 3
    assert saved.meta["samples_per_axis"] == 3
    capsys.readouterr()

    traj = tmp_path / "traj.csv"
    rc = main(["eval", "--model", str(model), "--path", "heart", "--emit", str(traj)])
    assert rc == 0
    lines = traj.read_text().splitlines()
    assert lines[0] == "idx,x1_ref,x2_ref,x3_ref,x1_pred,x2_pred,x3_pred,err_mm"
    assert len(lines) == 201
    assert "heart path" in capsys.readouterr().out

    rc = main(["bound", "--model", str(model)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 27
    assert report["half_spacing"] == 0.25
    assert report["gamma"] > 0

    assert report["rescale_factor_mm"] == 60.0


def test_train_defaults_are_the_training_config():
    args = _build_parser().parse_args(["train", "--samples-per-axis", "2", "--out", "m.json"])
    defaults = TrainingConfig()
    assert (args.hidden, args.epochs, not args.no_early_stop) == \
        (defaults.hidden, defaults.max_epochs, defaults.early_stopping)


def test_train_no_early_stop(tmp_path, capsys):
    model = tmp_path / "m.json"
    rc = main(["train", "--samples-per-axis", "2", "--epochs", "25",
               "--no-early-stop", "--out", str(model)])
    assert rc == 0
    assert load_model(model).meta["epochs_run"] == 25


def test_sweep_command(tmp_path, capsys):
    report = tmp_path / "report.csv"
    mirror = tmp_path / "report.json"
    curves = tmp_path / "curves"
    rc = main(["sweep", "--axis-counts", "2,3", "--repeats", "2",
               "--report", str(report), "--json", str(mirror),
               "--curves", str(curves)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 5          # header + 2 ks * 2 seeds
    assert lines[1].split(",")[2] == "1"  # seeds default to 1..repeats
    doc = json.loads(mirror.read_text())
    assert doc["meta"]["seeds"] == [1, 2]
    assert doc["meta"]["split_rounding"].startswith("half-up")
    assert sorted(p.name for p in curves.iterdir()) == [
        "k2_seed1.csv", "k2_seed2.csv", "k3_seed1.csv", "k3_seed2.csv"]
    out = capsys.readouterr().out
    assert "alpha" in out and "report written" in out


def test_sweep_records_the_distinct_ks_it_runs(tmp_path, capsys):
    mirror = tmp_path / "r.json"
    rc = main(["sweep", "--axis-counts", "3,2,2", "--repeats", "1",
               "--report", str(tmp_path / "r.csv"), "--json", str(mirror)])
    assert rc == 0
    doc = json.loads(mirror.read_text())
    assert doc["meta"]["axis_counts"] == doc["summary"]["ks"] == [2, 3]
    assert len(doc["rows"]) == 2
    capsys.readouterr()


def test_sweep_rerun_bitwise_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--axis-counts", "2", "--repeats", "2", "--report"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_custom_box_and_links(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["--box", "30,70,30,70,10,50", "--links", "70,70,70",
               "dataset", "--samples-per-axis", "2", "--out", str(out)])
    assert rc == 0
    first = out.read_text().splitlines()[1].split(",")
    assert [float(v) for v in first[:3]] == [30.0, 30.0, 10.0]


def test_invalid_config_exit_2(tmp_path, capsys):
    rc = main(["dataset", "--samples-per-axis", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = main(["--box", "1,2,3", "dataset", "--samples-per-axis", "2",
               "--out", str(tmp_path / "y.csv")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["train", "--samples-per-axis", "2", "--hidden", "1000000000000000", "--epochs", "1"],
    ["dataset", "--samples-per-axis", "100000"],
])
def test_unallocatable_size_exit_2(tmp_path, capsys, argv):
    # petabyte arrays that numpy refuses at once, before touching memory
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to allocate")
    assert not out.exists()


def test_sweep_k_out_of_range_exit_2(tmp_path, capsys):
    rc = main(["sweep", "--axis-counts", "20", "--report", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("text", [
    '{"schema": "ik-ann-model/1"}',
    "[]",
    '{"schema": "ik-ann-model/1", "hidden": 1, "w1": [[0, 0, 0]], "b1": [0], '
    '"w2": [[0], [0], [0]], "b2": [0, 0, 0], "input_min": [0, 0, 0], '
    '"input_max": [1, 1, 1], "meta": []}',
    pytest.param('{"schema": "ik-ann-model/1", "hidden": 1, "w1": [[0, 0, 0]], "b1": [0], '
                 '"w2": [[0], [0], [0]], "b2": [0, 0, 0], "input_min": [0, 0, 0], '
                 '"input_max": [1, 1, Infinity], "meta": {"samples_per_axis": 2}}',
                 id="infinite-input-max"),
    pytest.param('{"schema": "ik-ann-model/1", "hidden": 1, "w1": 5, "b1": [0], '
                 '"w2": [[0], [0], [0]], "b2": [0, 0, 0], "input_min": [0, 0, 0], '
                 '"input_max": [1, 1, 1], "meta": {"samples_per_axis": 2}}',
                 id="scalar-w1"),
    pytest.param('{"schema": "ik-ann-model/1", "meta": {"samples_per_axis": ' + "9" * 5001 + "}}",
                 id="5001-digit-samples-per-axis"),
    pytest.param('{"schema": "ik-ann-model/1", "w1": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 id="w1-nested-100000-deep"),
    pytest.param(b'\xff{"schema": "ik-ann-model/1"}', id="not-utf-8"),
])
def test_bad_model_file_exit_2(tmp_path, capsys, text):
    model = tmp_path / "bad.json"
    model.write_bytes(text if isinstance(text, bytes) else text.encode())
    for argv in (["bound", "--model", str(model)],
                 ["eval", "--model", str(model), "--emit", str(tmp_path / "t.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {model}: ")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("k", [1, 0, True, "3"])
def test_bound_needs_samples_per_axis_of_2_or_more(tmp_path, capsys, box, k):
    model = tmp_path / "model.json"
    save_model(init_params(4, 1), model, box, meta={"samples_per_axis": k})
    assert main(["bound", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {model}: ")


@pytest.mark.parametrize("k", [10 ** 15, 10 ** 200], ids=["1e15", "1e200"])
def test_bound_rejects_a_samples_per_axis_too_large_for_floats(tmp_path, capsys, box, k):
    # k ** 3 has a root that floats lose (1e15) or cannot hold (1e200)
    model = tmp_path / "model.json"
    save_model(init_params(4, 1), model, box, meta={"samples_per_axis": k})
    assert main(["bound", "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {model}: ")


def test_runtime_failure_exit_3(tmp_path, capsys):
    rc = main(["--box", "250,310,250,310,250,310", "dataset",
               "--samples-per-axis", "2", "--out", str(tmp_path / "z.csv")])
    assert rc == 3
    assert "unreachable" in capsys.readouterr().err
    rc = main(["--box=139,140,0,1,69,71", "dataset", "--samples-per-axis", "2",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 3
    assert capsys.readouterr().err == \
        "error: grid point 4 at (140.0, 0.0, 69.0) mm is unreachable\n"


def test_grid_point_on_base_axis_exit_2(tmp_path, capsys):
    # like an unreachable point, the error names the grid index and point;
    # a point on the base axis is bad configuration (exit 2), not a runtime
    # failure (exit 3)
    rc = main(["--box", "0,10,0,10,0,10", "dataset", "--samples-per-axis", "2",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: grid point 0 at (0.0, 0.0, 0.0) mm lies on the base axis\n"
    assert not (tmp_path / "g.csv").exists()
    rc = main(["--box=-10,10,-10,10,5,15", "dataset", "--samples-per-axis", "3",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: grid point 12 at (0.0, 0.0, 5.0) mm lies on the base axis\n"


@pytest.mark.parametrize("box", ["20,inf,20,80,0,60", "20,80,-inf,80,0,60", "20,80,20,80,0,nan"])
def test_non_finite_box_exit_2(tmp_path, capsys, box):
    rc = main([f"--box={box}", "dataset", "--samples-per-axis", "2",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: box bounds must be finite\n"
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("links", ["70,70,inf", "70,nan,70", "-inf,70,70"])
def test_non_finite_links_exit_2(tmp_path, capsys, links):
    rc = main([f"--links={links}", "dataset", "--samples-per-axis", "2",
               "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: link lengths must be positive and finite\n"
    assert not (tmp_path / "g.csv").exists()


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--seed", "-1", "train", "--samples-per-axis", "2", "--out", "m.json"],
    ["--seed", "-3", "sweep", "--axis-counts", "2", "--report", "r.csv"],
])
def test_negative_seed_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not os.listdir(tmp_path)


def test_warning_is_one_stderr_line(tmp_path, capsys):
    # main sets its own filter for the package's warnings, so the suite's
    # "error" filter does not turn this one into an exception
    # the heart path leaves a box whose x3 ends at 20 mm
    model = tmp_path / "m.json"
    assert main(["train", "--samples-per-axis", "2", "--epochs", "3", "--out", str(model)]) == 0
    capsys.readouterr()
    rc = main(["--box", "20,80,20,80,0,20", "eval", "--model", str(model),
               "--path", "heart", "--emit", str(tmp_path / "t.csv")])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: ") and "outside the workspace box" in err


def run_python(*args, cwd=None):
    """Run the interpreter on args with this tree's ``src`` on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_warning_under_w_error_is_one_stderr_line(tmp_path):
    # -W error turns every warning into an exception; the CLI still prints
    # its own as one line and exits 0
    assert main(["train", "--samples-per-axis", "2", "--epochs", "3",
                 "--out", str(tmp_path / "m.json")]) == 0
    run = run_python("-W", "error", "-m", "ikann.cli", "--box", "20,80,20,80,0,20",
                     "eval", "--model", "m.json", "--path", "heart", "--emit", "t.csv",
                     cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert "outside the workspace box" in lines[0]


def test_import_leaves_process_pools_out():
    # the sweep forks with os.fork; the pool modules would only add import time
    code = ("import sys, ikann.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("repeats", ["0", "1001", "100000000000000000000"])
def test_sweep_repeats_out_of_range_exit_2(tmp_path, capsys, repeats):
    rc = main(["sweep", "--repeats", repeats, "--report", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: --repeats must lie in [1, 1000]\n"
    assert not (tmp_path / "r.csv").exists()
