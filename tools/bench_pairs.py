#!/usr/bin/env python3
"""Alternating-pairs comparison of two commits on perfbench's end-to-end
metrics, written as a ``BENCH_<N>.json`` record.

    python3 tools/bench_pairs.py PARENT CHANGE --workload sweep-default \
        --pairs 10 --seed0 2001 --work DIR --out BENCH_13.json \
        --record BENCH_13 --change-text "what the change does"

Run it from the root of an ikann git repository. Each of the two commits is
cloned once into its own directory under ``--work``, so neither side runs
from the working tree. The clones start without bytecode caches, and where
``PYTHONDONTWRITEBYTECODE`` is set none is written, so every process
compiles ``src/ikann/`` (about 15 ms on a 2-core x86-64 host): 5 times per
``cli-single`` round and once per set-up sample. The record's
``environment`` keeps that variable's value, or null where it is unset,
since it moves ``setup_s`` and ``cli-single``'s ``wall_s``. Pair i runs ``perfbench/run.py --workload W --seed
seed0 + i --seconds S --trace 0`` on both sides, the parent first in even
pairs and the change first in odd ones, one run at a time. Per side the
record keeps the quartiles (inclusive method) of ``setup_s``, ``wall_s`` and
``peak_rss_mb`` over the pairs, the runs' ``wall_s``, whether every run was
correct, and the operations attempted and failed; per workload the number of
pairs in which the change's ``wall_s`` was lower and the change of the median
in percent. After the pairs, each side makes one ``--trace 1`` run with seed
``seed0 + pairs``, parent first, and the record keeps both sides' per-layer
metrics, so that it shows in which layer a difference appears.

``--out`` is read first if it exists: workloads are added to it, and a
workload it already holds gets the new pairs as its ``repeat``, or, when it
has one, as ``repeat_2``, ``repeat_3`` and so on, so no set is lost. Give
``--workload`` several times to run several workloads in one call.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("setup_s", "wall_s", "peak_rss_mb")
ORDER = ("record", "change", "parent_sha", "change_sha", "note", "environment", "command",
         "method", "workloads")
METHOD = ("alternating pairs, the side that runs first alternating from pair to pair; each "
          "side runs in its own clone of its commit; medians and quartiles (inclusive "
          "method) over the pairs; per-layer metrics from one --trace 1 run per side")


def git(*args, cwd="."):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def checkout(repo, sha, where):
    """A clone of ``repo`` at ``sha`` in ``where``: made once, and fetched
    into when it is reused, so that it knows commits made since."""
    if os.path.isdir(os.path.join(where, ".git")):
        git("fetch", "--quiet", repo, cwd=where)
    else:
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", repo, where], check=True)
    git("checkout", "--quiet", "--detach", sha, cwd=where)
    return where


def run_once(tree, workload, seed, seconds, trace=0):
    """The two JSON lines a perfbench run ends with: (environment, result)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, check=True, text=True, stdout=subprocess.PIPE)
    *_, env_line, result_line = proc.stdout.splitlines()
    return json.loads(env_line)["environment"], json.loads(result_line)


def environment(env):
    """A record's ``environment``: the fields of perfbench's environment line
    ``env``, and this process's ``PYTHONDONTWRITEBYTECODE``, which both
    sides' runs inherit."""
    out = {k: env[k] for k in ("python", "numpy", "blas", "cpu_count", "cpu_affinity")}
    out["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    return out


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def side_summary(results):
    out = {m: quartiles([r["metrics"][m]["value"] for r in results]) for m in METRICS}
    out["all_correct"] = all(r["correct"] for r in results)
    out["failed"] = sum(r["failed"] for r in results)
    out["attempted"] = sum(r["attempted"] for r in results)
    out["wall_s_runs"] = [round(r["metrics"]["wall_s"]["value"], 4) for r in results]
    return out


def compare(trees, workload, pairs, seed0, seconds):
    """Run ``pairs`` alternating pairs; returns (environment, workload block)."""
    results = {"parent": [], "change": []}
    env = None
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            env, result = run_once(trees[side], workload, seed0 + i, seconds)
            results[side].append(result)
            print(f"{workload} pair {i + 1}/{pairs} {side}: wall_s "
                  f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr, flush=True)
    block = {"pairs": pairs, "seeds": f"{seed0}..{seed0 + pairs - 1}",
             "parent": side_summary(results["parent"]),
             "change": side_summary(results["change"])}
    walls = [[r["metrics"]["wall_s"]["value"] for r in results[s]] for s in ("parent", "change")]
    block["wall_s_pairs_change_faster"] = sum(c < p for p, c in zip(*walls))
    block["wall_s_median_change_pct"] = round(
        100.0 * (statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0), 1)
    traced = {"seed": seed0 + pairs}
    for side in ("parent", "change"):
        _, result = run_once(trees[side], workload, seed0 + pairs, seconds, trace=1)
        traced[side] = {"correct": result["correct"],
                        "metrics": {name: float(f"{m['value']:.4g}")
                                    for name, m in result["metrics"].items()}}
        print(f"{workload} traced run {side} done", file=sys.stderr, flush=True)
    block["trace"] = traced
    return env, block


def add_set(workloads, workload, block):
    """Put one set of pairs into a record's ``workloads``: a workload's first
    set is its block, and later sets are its ``repeat``, ``repeat_2``, ..."""
    if workload not in workloads:
        workloads[workload] = block
        return
    n = 1 + sum(key.startswith("repeat") for key in workloads[workload])
    workloads[workload]["repeat" if n == 1 else f"repeat_{n}"] = block


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--work", required=True, help="directory for the two clones")
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True, help="the record's name, e.g. BENCH_13")
    parser.add_argument("--change-text", default="", help="what the change does")
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    repo = git("rev-parse", "--show-toplevel")
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    os.makedirs(args.work, exist_ok=True)
    trees = {side: checkout(repo, sha, os.path.join(args.work, side))
             for side, sha in shas.items()}

    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.update(record=args.record, change=args.change_text or record.get("change", ""),
                  parent_sha=shas["parent"], change_sha=shas["change"],
                  note=args.note or record.get("note", ""))
    workloads = record.setdefault("workloads", {})
    for workload in args.workload:
        env, block = compare(trees, workload, args.pairs, args.seed0, args.seconds)
        record["environment"] = environment(env)
        record["command"] = "python3 perfbench/run.py --workload W --seed N --seconds " \
                            f"{args.seconds} --trace 0"
        record["method"] = METHOD
        add_set(workloads, workload, block)
        with open(args.out, "w") as fh:   # after every workload, so a cut run keeps what it has
            json.dump({key: record[key] for key in ORDER}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
