"""Run one ikann CLI command with spans around the public functions.

    python3 perfbench/cli_traced.py SPANS.json <ikann arguments...>

The program's own output and exit code are passed through; the spans are
written to SPANS.json when the command ends.
"""

import sys

import tracing
from layers import CLI_COMMANDS, TARGETS


def main(spans_path, argv) -> int:
    import ikann.cli
    recorder = tracing.Recorder()
    tracing.install(recorder, TARGETS)
    command = next(a for a in argv if a in CLI_COMMANDS)
    try:
        with recorder.span(f"cli.{command}"):
            return ikann.cli.main(argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
