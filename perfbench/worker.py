"""The workload process: set up, run timed rounds, check the outputs.

Started by run.py; prints one JSON line with the round times, counts, check
results and environment. ``--setup-only`` stops after set-up and prints the
monotonic time at which the first timed operation could start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import speed


def run_rounds(workload, seconds: float, recorder=None):
    """Whole rounds until the next one would end past ``seconds``; at least one.

    The rounds run under a speed sampler (see speed.py). Its timer is off
    when the work runs in child processes, which sample themselves, and in
    traced rounds, so that no kernel sample lands inside a span.
    Returns (round times, failed operations, first outputs, output digests,
    kernel sample times).
    """
    times, digests, failed, first = [], set(), 0, None
    sampler = speed.Sampler(timer=recorder is None and not workload.runs_children)
    workload.sampler = sampler
    begin = time.perf_counter()
    with sampler:
        while True:
            paused = sampler.paused_s
            t0 = time.perf_counter()
            outputs, n_failed = workload.round(recorder)
            t1 = time.perf_counter()
            times.append(t1 - t0 - (sampler.paused_s - paused))
            failed += n_failed
            if outputs is not None:
                first = outputs if first is None else first
                digests.add(workload.digest(outputs))
            if (t1 - begin) + statistics.median(times) > seconds:
                return times, failed, first, digests, sampler.times


def blas_info() -> dict:
    import ctypes
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def environment(root: str) -> dict:
    import numpy as np
    try:
        from ikann._kernels import BACKEND as backend
    except ImportError:
        backend = None
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "ikann_backend": backend}


def measure(workload, args, root) -> dict:
    trace = bool(args.trace)
    # a traced run times untraced rounds, then traced ones, for the overhead
    untraced_s = args.seconds / 2 if trace else args.seconds
    times, failed, first, digests, kernel_s = run_rounds(workload, untraced_s)
    result = {"round_s": times, "kernel_s": kernel_s, "peak_rss_mb": workload.peak_rss_mb()}
    rounds = len(times)
    if trace:
        import layers
        import tracing
        recorder = tracing.Recorder()
        replaced = tracing.install(recorder, layers.TARGETS)
        try:
            t_times, t_failed, t_first, t_digests, _ = run_rounds(workload, args.seconds / 2,
                                                                  recorder)
        finally:
            tracing.uninstall(replaced)
        failed += t_failed
        digests |= t_digests
        first = first if first is not None else t_first
        rounds += len(t_times)
        layer = layers.span_metrics(recorder.spans, len(t_times))
        untraced, traced = statistics.fmean(times), statistics.fmean(t_times)
        layer["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        layer.update(workload.untraced_layer_metrics(first, times))
        probe_model = os.path.join(workload.bench_dir, "models", layers.PROBE_MODEL)
        layer.update(layers.probes(args.seed, probe_model, workload.python_env))
        result["traced_round_s"] = t_times
        result["layer"] = layer
        spans_path = os.path.join(workload.bench_dir, "_work",
                                  f"spans-{workload.name}-seed{args.seed}.json")
        recorder.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, root)

    errors = []
    if first is None:
        errors.append("no round produced outputs")
    else:
        if len(digests) != 1:
            errors.append(f"rounds gave {len(digests)} different outputs")
        try:
            errors += workload.check(first)
        except Exception:
            errors.append(f"check raised: {traceback.format_exc(limit=5)}")
    result.update(attempted=rounds * workload.ops_per_round, failed=failed, errors=errors,
                  failures=workload.failures)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ikann
    if not os.path.abspath(ikann.__file__).startswith(src + os.sep):
        print(f"error: ikann was imported from {ikann.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    work_root = os.path.join(bench_dir, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    env = dict(os.environ, PYTHONPATH=src)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, bench_dir, env)
        if args.setup_only:
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        result = measure(workload, args, root)
        result["environment"] = environment(root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
