#!/usr/bin/env python3
"""ikann benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {sweep-default,cli-single,certify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of an ikann source tree; the program is imported from
``src`` there. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import speed

WORKLOADS = ("sweep-default", "cli-single", "certify")
# fresh processes that only set up; setup_s is their median
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170


def setup_time(cmd, env, root) -> float:
    """Seconds from starting a process to the point where its first timed
    operation could begin."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--setup-only"], env=env, cwd=root, check=True, text=True,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ikann", "cli.py")):
        print("error: no ikann source tree here; run from the repository root "
              "(src/ikann/cli.py not found)", file=sys.stderr)
        return 2

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, os.path.join(bench_dir, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    # set-up samples come half before the worker and half after it, so that
    # their median does not rest on a single spell of machine speed
    n_setups = 0 if args.trace else SETUP_REPEATS
    setups = [setup_time(cmd, env, root) for _ in range(n_setups // 2)]

    # its own session, so a worker that overruns goes down with its children
    proc = subprocess.Popen(cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                            env=env, cwd=root, text=True, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: the {args.workload} worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: the {args.workload} worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    res = json.loads(out.splitlines()[-1])
    setups += [setup_time(cmd, env, root) for _ in range(n_setups - n_setups // 2)]
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    if args.trace:
        values = res["layer"]
    else:
        values = {
            # at reference speed too, by the speed factor of the rounds the
            # set-up processes bracket; a set-up process is too short for
            # its own samples to tell its speed
            "setup_s": statistics.median(setups) * speed.scale(res["kernel_s"]),
            # the mean, not the median: CPU speed here shifts in spells of
            # seconds, and the mean of a run's rounds spreads less under that
            "wall_s": statistics.fmean(res["round_s"]) * speed.scale(res["kernel_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != values.keys():
        print(f"error: measured metrics {sorted(values)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": res["environment"],
              "rounds": len(res["round_s"]) + len(res.get("traced_round_s", [])),
              "round_s": res["round_s"], "traced_round_s": res.get("traced_round_s"),
              "setup_samples_s": setups, "kernel_s": res["kernel_s"],
              "spans_file": res.get("spans_file"),
              "errors": res["errors"], "failures": res["failures"]}
    with open(os.path.join(bench_dir, "_work",
                           f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    print(json.dumps({"environment": res["environment"], "rounds": record["rounds"]}))
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
