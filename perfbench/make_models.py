#!/usr/bin/env python3
"""Make the certify workload's model files anew.

    python3 perfbench/make_models.py

Run from the repository root. Trains the sweep cells k = 2..8 for seeds 1
and 2 with the ``train`` command's defaults (the sweep's recipe) and writes
them to perfbench/models/k{k}_seed{seed}.json.
"""

import os
import subprocess
import sys

KS = range(2, 9)
SEEDS = (1, 2)


def main() -> int:
    root = os.getcwd()
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for k in KS:
        for seed in SEEDS:
            out = os.path.join(out_dir, f"k{k}_seed{seed}.json")
            subprocess.run([sys.executable, "-m", "ikann.cli", "--seed", str(seed), "train",
                            "--samples-per-axis", str(k), "--out", out],
                           env=env, check=True, stdin=subprocess.DEVNULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
