"""tools/bench_pairs.py's summaries, with perfbench runs stubbed out."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(wall, setup=0.2, rss=40.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"setup_s": {"value": setup}, "wall_s": {"value": wall},
                        "peak_rss_mb": {"value": rss}}}


def test_quartiles_inclusive(bench_pairs):
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == \
        {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"q1": 1.25, "median": 1.5, "q3": 1.75}


def test_side_summary(bench_pairs):
    runs = [result(1.0, rss=41.0), result(3.0, failed=2), result(2.0, correct=False)]
    out = bench_pairs.side_summary(runs)
    assert out["wall_s"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert out["peak_rss_mb"] == {"q1": 40.0, "median": 40.0, "q3": 40.5}
    assert out["wall_s_runs"] == [1.0, 3.0, 2.0]
    assert out["setup_s_runs"] == [0.2, 0.2, 0.2]
    assert out["peak_rss_mb_runs"] == [41.0, 40.0, 40.0]
    assert (out["all_correct"], out["failed"], out["attempted"]) == (False, 2, 30)


def test_compare_alternates_and_keeps_one_traced_run_per_side(bench_pairs, monkeypatch):
    calls = []
    walls = {"parent": [1.0, 1.1, 0.9, 1.2], "change": [0.9, 1.15, 0.8, 1.0]}

    def run_once(tree, workload, seed, seconds, trace=0):
        calls.append((tree, seed, trace))
        if trace:
            metrics = {"sampler.generate_grid.s": {"value": 0.0123456 if tree == "P" else 0.01}}
            return {"python": "3"}, {"correct": True, "metrics": metrics}
        side = "parent" if tree == "P" else "change"
        return {"python": "3"}, result(walls[side][seed - 100])

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    env, block = bench_pairs.compare({"parent": "P", "change": "C"}, "certify", 4, 100, 30)
    assert env == {"python": "3"}
    # the side that runs first alternates; then one traced run per side
    assert calls == [("P", 100, 0), ("C", 100, 0), ("C", 101, 0), ("P", 101, 0),
                     ("P", 102, 0), ("C", 102, 0), ("C", 103, 0), ("P", 103, 0),
                     ("P", 104, 1), ("C", 104, 1)]
    assert block["pairs"] == 4 and block["seeds"] == "100..103"
    assert block["wall_s_pairs_change_faster"] == 3
    # medians 1.05 and 0.95
    assert block["wall_s_median_change_pct"] == -9.5
    assert block["parent"]["wall_s_runs"] == walls["parent"]
    assert block["trace"] == {
        "seed": 104,
        "parent": {"correct": True, "metrics": {"sampler.generate_grid.s": 0.01235}},
        "change": {"correct": True, "metrics": {"sampler.generate_grid.s": 0.01}}}


def test_add_set_keeps_every_set(bench_pairs):
    # a workload's sets go to its block, then repeat, repeat_2, ...: a third
    # set of pairs does not overwrite the second
    workloads = {}
    for i in range(4):
        bench_pairs.add_set(workloads, "cli-single", {"seeds": i})
    block = workloads["cli-single"]
    assert block["seeds"] == 0
    assert [block[k]["seeds"] for k in ("repeat", "repeat_2", "repeat_3")] == [1, 2, 3]


def test_environment_keeps_the_bytecode_setting(bench_pairs, monkeypatch):
    # the clones have no bytecode caches, so whether the runs may write them
    # moves set-up and per-process times; the record keeps the setting
    env = {"python": "3.11", "numpy": "2.4", "blas": "openblas", "cpu_count": 2,
           "cpu_affinity": 2, "extra": "dropped"}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.environment(env) == {
        "python": "3.11", "numpy": "2.4", "blas": "openblas", "cpu_count": 2,
        "cpu_affinity": 2, "PYTHONDONTWRITEBYTECODE": "1"}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.environment(env)["PYTHONDONTWRITEBYTECODE"] is None


def test_verdict_against_the_bound(bench_pairs):
    tight = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]       # median 1.0, quartile distance 0.015
    wide = [1.0, 1.4, 0.7, 1.2, 0.8, 1.1]            # median 1.05, quartile distance 0.325
    # a median worse by more than the bound's share of the parent's median
    assert bench_pairs.verdict(tight, [1.3] * 6, 0.25, "lower") == "worse"
    assert bench_pairs.verdict(tight, [0.7] * 6, 0.25, "higher") == "worse"
    # within the bound, from a parent whose spread the bound resolves
    assert bench_pairs.verdict(tight, [1.2] * 6, 0.25, "lower") == "no_worse"
    assert bench_pairs.verdict(tight, [0.8] * 6, 0.25, "higher") == "no_worse"
    # the parent's own spread exceeds the bound: unresolved, unless every
    # change run beats every parent run
    assert bench_pairs.verdict(wide, [1.0] * 6, 0.25, "lower") == "unresolved"
    assert bench_pairs.verdict(wide, [0.69] * 6, 0.25, "lower") == "no_worse"
    assert bench_pairs.verdict(wide, [1.41] * 6, 0.25, "higher") == "no_worse"
    # a worse median is worse, whatever the spread
    assert bench_pairs.verdict(wide, [1.4] * 6, 0.25, "lower") == "worse"


def test_verdicts_read_the_benchmark_bounds(bench_pairs):
    bounds = bench_pairs.load_bounds(SCRIPT.parents[1] / "BENCHMARK.json")
    assert set(bounds) == set(bench_pairs.METRICS)
    assert bounds["peak_rss_mb"] == (0.1, "lower")
    parent = [result(1.0 + i / 100, setup=0.2, rss=40.0) for i in range(10)]
    change = [result(1.0 + i / 100, setup=0.3, rss=40.02) for i in range(10)]
    block = {"parent": bench_pairs.side_summary(parent),
             "change": bench_pairs.side_summary(change)}
    # setup_s is 50% worse, the bound 25%; peak_rss_mb 0.05% worse, the bound 10%
    assert bench_pairs.verdicts(block, bounds) == {
        "setup_s": "worse", "wall_s": "no_worse", "peak_rss_mb": "no_worse"}
