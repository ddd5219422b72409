"""Run one qnskit command with tracing on, for the traced CLI loop.

usage: python3 perfbench/cli_child.py TRACE_OUT [qnskit arguments ...]

The spans of the command and its start-up time (from the parent's spawn
stamp to the end of `import qnskit.cli`) are written to TRACE_OUT as JSON
when the command returns.  The exit code is the command's own.
"""

import json
import os
import sys
import time

import qnskit.cli

from tracing import SPAWN_TIME_VAR, Tracer


def main() -> int:
    startup_s = time.time() - float(os.environ[SPAWN_TIME_VAR])
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return qnskit.cli.run(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({**tracer.export(), "startup_s": startup_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
