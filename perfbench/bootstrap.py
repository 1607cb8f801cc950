"""Run one rpq CLI command with the layer tracer installed.

    python perfbench/bootstrap.py TRACE_OUT RPQ_ARG...

Installs the wrappers, calls `rpq.cli.main(RPQ_ARG...)`, then writes the
spans and counters as JSON to TRACE_OUT and exits with main's code.  It
writes nothing to stdout itself, so the command's stdout is the same with
and without tracing.
"""

import json
import sys

from tracing import Tracer


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return sys.modules["rpq.cli"].main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    raise SystemExit(main())
