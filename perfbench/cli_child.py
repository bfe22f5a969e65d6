"""Traced ``repro check`` process for the ``cli-cold`` workload.

Usage: ``python perfbench/cli_child.py SPANS_FILE CHECK-ARGS...``

Times ``import repro.cli``, installs the layer wrappers, runs
``repro.cli.main(CHECK-ARGS)`` under one root span and writes the spans
to SPANS_FILE.  Standard output and the exit code are those of
``python -m repro.cli CHECK-ARGS``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, check_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.op_id = 0
    root = tracer.begin("op")
    code = 1
    try:
        span = tracer.begin("import")
        import repro.cli
        tracer.end(span)
        span = tracer.begin("trace.install")
        tracer.install()
        tracer.end(span)
        code = repro.cli.main(check_args)
    finally:
        tracer.end(root)
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
