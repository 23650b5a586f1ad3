"""Run one ikann CLI command under the speed sampler (speed.py).

    python3 perfbench/cli_timed.py SPEED.json <ikann arguments...>

The program's own output and exit code are passed through. SPEED.json gets
the kernel sample times and the seconds the samples took, which the caller
subtracts from the command's wall time.
"""

import json
import sys

import speed


def main(speed_path, argv) -> int:
    sampler = speed.Sampler()
    try:
        with sampler:
            import ikann.cli
            return ikann.cli.main(argv)
    finally:
        with open(speed_path, "w") as fh:
            json.dump({"kernel_s": sampler.times, "paused_s": sampler.paused_s}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
