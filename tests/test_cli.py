import json

import pytest

from ikann.cli import _build_parser, main
from ikann.harness import load_model
from ikann.neuralnet import TrainingConfig


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
])
def test_bad_model_file_exit_2(tmp_path, capsys, text):
    model = tmp_path / "bad.json"
    model.write_text(text)
    for argv in (["bound", "--model", str(model)],
                 ["eval", "--model", str(model), "--emit", str(tmp_path / "t.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {model}: ")
    assert not (tmp_path / "t.csv").exists()


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
