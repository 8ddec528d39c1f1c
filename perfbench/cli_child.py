"""Run one iqlin CLI command with the benchmark's tracer installed.

The traced run of the ``cli`` workload starts this script in place of
``python -m iqlin.cli``; it runs the same ``iqlin.cli.main`` and saves
its spans for the parent to merge.

Usage: python3 perfbench/cli_child.py TRACE_PATH OP_INDEX CLI_ARGS...
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import iqlin.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer().install()
    tracer.current_op = op
    try:
        return iqlin.cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        tracer.save(trace_path)


if __name__ == "__main__":
    sys.exit(main())
