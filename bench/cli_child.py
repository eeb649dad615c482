"""Start-up script for one traced CLI call.

    python3 bench/cli_child.py TRACE_FILE VERB [ARGS...]

Times ``import phk.cli``, wraps phk's public functions (see ``tracer``), runs
the verb as ``python -m phk.cli VERB ARGS...`` would, and writes the spans
and their totals to TRACE_FILE.  ``src`` must be on ``PYTHONPATH``.
"""
import sys
from time import perf_counter

_start = perf_counter()
import phk.cli  # noqa: E402

_import_s = perf_counter() - _start

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.import_s = _import_s
    tracer.install()
    tracer.op = 0
    tracer.active = True
    try:
        return phk.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
