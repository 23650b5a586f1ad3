import json
import math
import struct
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ikann.bound import sample_bound
from ikann.errors import InsufficientData
from ikann.harness import (REPORT_COLUMNS, HarnessConfig, SweepRow,
                           emit_report, export_dataset, export_trajectory,
                           fit_convergence_rate, load_model, run_sweep,
                           save_model, summarize, write_training_curve)
from ikann.neuralnet import NetworkParams, TrainingConfig, init_params
from ikann.sampler import WorkspaceBox, generate_grid
from ikann.trajectory import PathOutsideBoxWarning, make_heart_path, make_rectangle_path

QUICK = HarnessConfig(training=TrainingConfig(max_epochs=40))


def synthetic_row(k, seed, err, w_bar=0.3, est=None, path="rectangle"):
    d = 60.0 / (k - 1)
    est = est if est is not None else 1.0
    return SweepRow(k=k, n=k ** 3, seed=seed, mean_err_mm=err, std_err_mm=0.1,
                    est_bound_mm=est, spacing_mm=d, err_to_spacing=err / d,
                    gamma=5.0, w_bar=w_bar, epochs_run=10,
                    final_train_loss=1e-3, final_val_loss=1e-3,
                    path_kind=path, split_sizes="6/1/1")


def one_cell(k, seed, cfg=HarnessConfig()):
    """The row of the one-cell sweep of (k, seed)."""
    return run_sweep([k], [seed], cfg).rows[0]


# --- one cell ---------------------------------------------------------------

def test_run_experiment_k5(box):
    row = one_cell(5, 42, QUICK)
    assert row.n == 125
    assert row.spacing_mm == 15.0
    assert row.split_sizes == "113/6/6"
    assert row.path_kind == "rectangle"
    assert row.err_to_spacing == pytest.approx(row.mean_err_mm / 15.0, rel=1e-15)
    assert row.est_bound_mm == sample_bound(row.n, row.w_bar) * 60.0


def test_run_experiment_deterministic():
    a = one_cell(3, 7, QUICK)
    b = one_cell(3, 7, QUICK)
    assert a == b


def test_run_experiment_heart_path():
    row = one_cell(3, 1, HarnessConfig(training=QUICK.training, path_kind="heart"))
    assert row.path_kind == "heart"
    assert math.isfinite(row.mean_err_mm)


# --- convergence fit --------------------------------------------------------

def test_fit_exact_power_law():
    rows = [synthetic_row(k, 1, (k ** 3) ** (-2.0 / 3.0)) for k in range(2, 8)]
    assert fit_convergence_rate(rows) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_fit_constant_error():
    rows = [synthetic_row(k, 1, 3.5) for k in range(2, 8)]
    assert fit_convergence_rate(rows) == pytest.approx(0.0, abs=1e-12)


def test_fit_insufficient_data():
    rows = [synthetic_row(k, 1, 1.0) for k in (2, 3)]
    with pytest.raises(InsufficientData):
        fit_convergence_rate(rows)


def test_fit_published_error_column():
    # independent oracle: log-log least squares on the published 7-row error
    # column gives alpha ~= 0.622
    errs = [19.31, 5.31, 2.73, 2.17, 1.85, 1.52, 1.23]
    rows = [synthetic_row(k, 1, e) for k, e in zip(range(2, 9), errs)]
    assert fit_convergence_rate(rows) == pytest.approx(0.62227, abs=1e-4)


def test_fit_averages_seeds():
    rows = [synthetic_row(k, s, (k ** 3) ** -0.5 * f)
            for k in (2, 3, 4) for s, f in ((1, 0.9), (2, 1.1))]
    assert fit_convergence_rate(rows) == pytest.approx(0.5, abs=1e-2)


# --- sweep ------------------------------------------------------------------

def test_run_sweep_shape_and_order():
    res = run_sweep([3, 2], [2, 1], QUICK)
    assert [(r.k, r.seed) for r in res.rows] == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert res.summary.ks == [2, 3]


def test_run_sweep_repeated_cells_run_once():
    # a repeated k or seed adds no row, so it cannot shrink the across-seed std
    repeated = run_sweep([2, 2, 3], [1, 1, 2], QUICK)
    distinct = run_sweep([3, 2], [2, 1], QUICK)
    assert repeated.rows == distinct.rows
    # alpha is NaN with two ks; assert_equal counts NaN equal to NaN
    np.testing.assert_equal(asdict(repeated.summary), asdict(distinct.summary))


def test_sweep_rows_match_run_experiment():
    # k = 3 has a one-row tail batch, and seeds 1..5 include two that stop
    # early while the others train on to max_epochs
    res = run_sweep([3], range(1, 6))
    assert res.rows == [one_cell(3, s) for s in range(1, 6)]
    assert len({r.epochs_run for r in res.rows}) > 2


def test_sweep_rows_independent_of_grouping():
    cfg = HarnessConfig(training=TrainingConfig(max_epochs=60))
    alone = run_sweep([5], [1, 2, 3], cfg)
    full = run_sweep(range(2, 9), [1, 2, 3], cfg)
    assert alone.rows == [r for r in full.rows if r.k == 5]


@settings(max_examples=25, deadline=None)
@given(ks=st.sets(st.integers(2, 6), min_size=1),
       seeds=st.sets(st.integers(1, 6), min_size=1, max_size=3),
       max_epochs=st.integers(1, 30), patience=st.integers(1, 3),
       min_delta=st.sampled_from([1e-5, 1e-3, 1e-2]))
def test_sweep_rows_match_one_cell_sweeps_property(ks, seeds, max_epochs, patience, min_delta):
    # one stack of mixed grid sizes, where models stop early at different
    # epochs, gives each cell the row it gets alone
    cfg = HarnessConfig(training=TrainingConfig(max_epochs=max_epochs, patience=patience,
                                                min_delta=min_delta))
    rows = run_sweep(ks, seeds, cfg).rows
    assert rows == [one_cell(k, s, cfg) for k in sorted(ks) for s in sorted(seeds)]


def test_run_sweep_k_range():
    for k in (1, 13, 20):
        with pytest.raises(ValueError):
            run_sweep([3, k], [1], QUICK)


def test_run_sweep_failed_cell_marker():
    bad_box = WorkspaceBox(lo=np.array([250.0, 250.0, 250.0]),
                           hi=np.array([310.0, 310.0, 310.0]))
    cfg = HarnessConfig(box=bad_box, training=TrainingConfig(max_epochs=5))
    res = run_sweep([2], [1, 2], cfg)
    assert len(res.rows) == 2
    assert all(r.failed for r in res.rows)
    assert res.rows[0].path_kind == "error:UnreachableGridPoint"
    assert math.isnan(res.rows[0].mean_err_mm)


def test_run_sweep_degenerate_grid_fails_only_its_k():
    # the k = 3 grid of this box has the origin, on the base axis; k = 2 has not
    box = WorkspaceBox(lo=np.array([-30.0, -30.0, 0.0]), hi=np.array([30.0, 30.0, 60.0]))
    cfg = HarnessConfig(box=box, training=TrainingConfig(max_epochs=5))
    res = run_sweep([2, 3], [1, 2], cfg)
    assert [(r.k, r.failed) for r in res.rows] == [(2, False), (2, False), (3, True), (3, True)]
    for r in res.rows[:2]:
        assert r.n == r.k ** 3
        assert r.err_to_spacing == r.mean_err_mm / r.spacing_mm
        assert r.est_bound_mm == sample_bound(r.n, r.w_bar) * 60.0
        assert math.isfinite(r.mean_err_mm)
    assert {r.path_kind for r in res.rows[2:]} == {"error:DegenerateAxis"}
    assert res.summary.ks == [2]


def test_summary_recomputable_from_rows():
    res = run_sweep([2, 3, 4], [1, 2], QUICK)
    s = res.summary
    for i, k in enumerate(s.ks):
        per_seed = [r.mean_err_mm for r in res.rows if r.k == k]
        assert s.mean_err_mm[i] == pytest.approx(float(np.mean(per_seed)), rel=1e-12)
        assert s.std_err_mm[i] == pytest.approx(float(np.std(per_seed, ddof=1)), rel=1e-12)
    assert s.alpha == pytest.approx(fit_convergence_rate(res.rows), rel=1e-12)


def test_saturation_detection():
    errs = {2: 20.0, 3: 10.0, 4: 9.0, 5: 8.5}
    rows = [synthetic_row(k, 1, errs[k]) for k in errs]
    s = summarize(rows)
    assert s.saturation_k == 3
    flat = [synthetic_row(k, 1, 5.0) for k in (2, 3, 4)]
    assert summarize(flat).saturation_k == 2
    steep = [synthetic_row(k, 1, 100.0 / k ** 3) for k in (2, 3, 4)]
    assert summarize(steep).saturation_k == 4


def test_sweep_requires_inputs():
    with pytest.raises(ValueError):
        run_sweep([], [1], QUICK)


# --- persistence ------------------------------------------------------------

def test_report_roundtrip(tmp_path):
    res = run_sweep([2, 3], [1], QUICK)
    path = tmp_path / "report.csv"
    emit_report(res.rows, res.summary, path)
    text = path.read_text()
    header = text.splitlines()[0]
    assert header.split(",") == REPORT_COLUMNS
    assert len(REPORT_COLUMNS) == 15
    assert [len(line.split(",")) for line in text.splitlines()[1:]] == [15, 15]


finite_or_odd = st.floats(allow_nan=False) | st.just(math.nan)
nonneg = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def ok_rows(draw):
    # a row of a cell that did not fail
    k = draw(st.integers(2, 12))
    err = draw(nonneg)
    d = draw(st.floats(1e-3, 1e3))
    return SweepRow(k=k, n=k ** 3, seed=draw(st.integers(-2 ** 31, 2 ** 31)),
                    mean_err_mm=err, std_err_mm=draw(nonneg), est_bound_mm=draw(nonneg),
                    spacing_mm=d, err_to_spacing=err / d,
                    gamma=draw(nonneg), w_bar=draw(st.floats(0.0, 1e100)),
                    epochs_run=draw(st.integers(1, 10 ** 6)),
                    final_train_loss=draw(nonneg), final_val_loss=draw(nonneg),
                    path_kind=draw(st.sampled_from(["rectangle", "heart"])),
                    split_sizes="/".join(map(str, draw(st.tuples(*[st.integers(0, 2000)] * 3)))))


@st.composite
def marker_rows(draw):
    # a failed cell's marker row, with any floats in its float columns
    k = draw(st.integers(2, 12))
    name = draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,20}", fullmatch=True))
    floats = draw(st.tuples(*[finite_or_odd] * 9))
    return SweepRow(k, k ** 3, draw(st.integers(-10, 10)), *floats[:7], 0, *floats[7:],
                    path_kind=f"error:{name}", split_sizes="")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(ok_rows() | marker_rows(), max_size=6))
@example(rows=[
    SweepRow(2, 8, 1, math.nan, -0.0, 5e-324, -2.2250738585072014e-308, math.inf,
             -math.inf, 1e-310, 0, -5e-324, math.nan, "error:UnreachableGridPoint", ""),
    SweepRow(3, 27, 1, 0.0, 5e-324, -0.0, 30.0, 0.0, 1e-320, 0.0, 500, 1e-310, 5e-324,
             "rectangle", "25/1/1"),
])
def test_report_roundtrip_bitwise_property(tmp_path_factory, rows):
    # every value of a report reads back from its text with its bits, NaN,
    # -0.0, subnormals and infinities included; the summary goes only into
    # the JSON mirror
    path = tmp_path_factory.mktemp("report") / "r.csv"
    emit_report(rows, None, path)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        texts = line.split(",")
        assert len(texts) == 15
        for value, text in zip(astuple(row), texts):
            if type(value) is float:
                assert struct.pack("<d", float(text)) == struct.pack("<d", value)
            elif type(value) is int:
                assert int(text) == value
            else:
                assert text == value


def test_report_emission_bitwise_deterministic(tmp_path):
    res = run_sweep([2], [1], QUICK)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(res.rows, res.summary, p1)
    emit_report(res.rows, res.summary, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_json_mirror(tmp_path):
    res = run_sweep([2], [1], QUICK)
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    emit_report(res.rows, res.summary, csv_path, json_path=json_path,
                metadata={"repeats": 1})
    doc = json.loads(json_path.read_text())
    assert doc["meta"]["repeats"] == 1
    assert len(doc["rows"]) == 1
    assert doc["summary"]["ks"] == [2]


def test_report_json_rows_typed(tmp_path):
    res = run_sweep([2, 3], [1], QUICK)
    json_path = tmp_path / "r.json"
    emit_report(res.rows, res.summary, tmp_path / "r.csv", json_path=json_path)
    doc = json.loads(json_path.read_text())
    assert doc["rows"] == [asdict(r) for r in res.rows]
    assert list(doc["rows"][0]) == REPORT_COLUMNS
    assert isinstance(doc["rows"][0]["k"], int)
    assert isinstance(doc["rows"][0]["mean_err_mm"], float)


def test_sweep_numpy_integers_reported_as_ints(tmp_path):
    res = run_sweep(np.arange(2, 4), np.array([1]), QUICK)
    assert all(type(r.k) is int and type(r.seed) is int for r in res.rows)
    json_path = tmp_path / "r.json"
    emit_report(res.rows, res.summary, tmp_path / "r.csv", json_path=json_path)
    doc = json.loads(json_path.read_text())
    assert doc["summary"]["ks"] == [2, 3]
    assert [(r["k"], r["seed"]) for r in doc["rows"]] == [(2, 1), (3, 1)]


def test_model_roundtrip_bitwise(tmp_path, box):
    p = init_params(16, 5)
    path = tmp_path / "model.json"
    save_model(p, path, box, meta={"samples_per_axis": 4, "seed": 5})
    saved = load_model(path)
    assert np.array_equal(saved.params.w1, p.w1)
    assert np.array_equal(saved.params.b1, p.b1)
    assert np.array_equal(saved.params.w2, p.w2)
    assert np.array_equal(saved.params.b2, p.b2)
    np.testing.assert_array_equal(saved.box.lo, box.lo)
    np.testing.assert_array_equal(saved.box.hi, box.hi)
    assert saved.meta["samples_per_axis"] == 4

    doc = json.loads(path.read_text())
    assert doc["schema"] == "ik-ann-model/1"
    assert doc["activation"] == "relu"
    assert doc["hidden"] == 16


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def saved_models(draw):
    h = draw(st.integers(1, 4))
    weights = [draw(arrays(np.float64, shape, elements=finite))
               for shape in ((h, 3), (h,), (3, h), (3,))]
    lo, hi = (draw(arrays(np.float64, (3,), elements=finite)) for _ in range(2))
    assume(np.all(np.minimum(lo, hi) < np.maximum(lo, hi)))
    box = WorkspaceBox(lo=np.minimum(lo, hi), hi=np.maximum(lo, hi))
    return NetworkParams(*weights), box


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(model=saved_models())
@example(model=(NetworkParams(np.array([[-0.0, 5e-324, -2.2250738585072014e-308]]),
                              np.array([-0.0]), np.array([[1e-310], [-0.0], [0.0]]),
                              np.array([-5e-324, -0.0, 1.7976931348623157e308])),
                WorkspaceBox(lo=np.array([-0.0, -1e-320, -1.0]),
                             hi=np.array([5e-324, 0.0, -0.0]))))
def test_model_roundtrip_bitwise_property(tmp_path_factory, model):
    # every weight and box bound reads back with its bits, -0.0 and
    # subnormals included
    params, box = model
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(params, path, box)
    saved = load_model(path)
    for name in ("w1", "b1", "w2", "b2"):
        assert same_bits(getattr(saved.params, name), getattr(params, name)), name
    assert same_bits(saved.box.lo, box.lo) and same_bits(saved.box.hi, box.hi)


@pytest.mark.parametrize("text, message", [
    ('{"schema": "ik-ann-model/1"}', "missing key 'w1'"),
    ("[]", "expected a JSON object, got list"),
    ("not json", "not a JSON file"),
])
def test_model_file_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_model_file_bad_keys_rejected(tmp_path, box):
    good = tmp_path / "good.json"
    save_model(init_params(4, 1), good, box, meta={"samples_per_axis": 3})
    for key, value, message in (("meta", [], "key 'meta' must be a JSON object"),
                                ("w1", [[1.0, 2.0]], "inconsistent parameter shapes"),
                                ("w1", 5, "inconsistent parameter shapes"),
                                ("w1", True, "inconsistent parameter shapes"),
                                ("w1", None, "inconsistent parameter shapes"),
                                ("b2", "abc", "key 'b2' is not an array of numbers"),
                                ("input_min", {"a": 1}, "key 'input_min' is not an array"),
                                ("input_max", [0.0, 0.0, 0.0], "lo < hi")):
        doc = json.loads(good.read_text())
        doc[key] = value
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")


def test_model_schema_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "something-else/9"}')
    with pytest.raises(ValueError):
        load_model(path)


def test_dataset_roundtrip(tmp_path, box, geom):
    ds = generate_grid(box, 3, geom)
    path = tmp_path / "grid.csv"
    export_dataset(ds, path)
    assert path.read_text().splitlines()[0] == "x1_mm,x2_mm,x3_mm,q1_rad,q2_rad,q3_rad"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert same_bits(data, np.hstack([ds.points, ds.angles]))


def test_trajectory_export(tmp_path, box, geom, trained_k3):
    params, _ = trained_k3
    traj = make_rectangle_path(box)
    path = tmp_path / "traj.csv"
    rep = export_trajectory(traj, params, geom, box, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "idx,x1_ref,x2_ref,x3_ref,x1_pred,x2_pred,x3_pred,err_mm"
    assert len(lines) == 1 + rep.n_points
    first = lines[1].split(",")
    assert first[0] == "0"
    np.testing.assert_allclose([float(v) for v in first[1:4]], traj.points[0])


SHORT_BOX = WorkspaceBox(lo=[20.0, 20.0, 0.0], hi=[80.0, 80.0, 20.0])   # the heart leaves it


def test_export_warning_names_the_caller(tmp_path, geom, trained_k3):
    params, _ = trained_k3
    with pytest.warns(PathOutsideBoxWarning) as record:
        export_trajectory(make_heart_path(), params, geom, SHORT_BOX, tmp_path / "t.csv")
    assert [w.filename for w in record] == [__file__]


def test_sweep_warning_names_the_caller():
    with pytest.warns(PathOutsideBoxWarning) as record:
        run_sweep([2], [1], HarnessConfig(box=SHORT_BOX, path_kind="heart",
                                          training=TrainingConfig(max_epochs=3)))
    assert [w.filename for w in record] == [__file__]


def test_training_curve_file(tmp_path, trained_k3):
    _, trace = trained_k3
    path = tmp_path / "curve.csv"
    write_training_curve(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 1 + trace.epochs_run
