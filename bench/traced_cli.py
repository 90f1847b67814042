"""Run one mosurf command with the layer spans installed.

Usage: python3 traced_cli.py TRACE_OUT [mosurf arguments ...]

The library must be importable (PYTHONPATH).  The spans, counters and the
wall-clock times at which ``main`` was entered and left are written to
TRACE_OUT as JSON; the exit status is that of the command.
"""

import json
import sys
import time

from spans import Tracer


def run(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    main = sys.modules["mosurf.cli"].main
    entered = time.time()
    try:
        return main(argv)
    finally:
        left = time.time()
        with open(out, "w") as fh:
            json.dump({"entered": entered, "left": left, **tracer.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
