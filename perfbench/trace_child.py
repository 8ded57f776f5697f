"""Run one levitaq CLI invocation with its public functions traced.

Usage: python perfbench/trace_child.py SPAN_FILE SUBCOMMAND [ARGS...]

Behaves like ``python -m levitaq.cli SUBCOMMAND [ARGS...]`` (same output and
exit code) and writes the recorded spans to SPAN_FILE as JSON, even when the
command raises.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import levitaq.cli
    try:
        return levitaq.cli.run(argv)
    finally:
        Path(span_file).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
