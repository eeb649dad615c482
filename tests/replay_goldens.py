"""Replay every CLI golden in this interpreter and report each mismatch.

Run it under ``python -O`` to show that no answer depends on an ``assert``
statement, which ``-O`` strips:

    PYTHONPATH=src python -O tests/replay_goldens.py

The cases, the in-process runner and the golden files are those of
``tests/test_golden_cli.py``.  Exits 1 when any case differs.
"""
from __future__ import annotations

import json
import sys

from test_golden_cli import GOLDEN, GOLDEN_EXTRA, cases, extra_cases, run


def main() -> int:
    total = failed = 0
    # golden_cli.json pins exit code and stdout; the extra file pins stderr too.
    for path, argvs, keys in (
        (GOLDEN, cases(), ("code", "stdout")),
        (GOLDEN_EXTRA, extra_cases(), ("code", "stdout", "stderr")),
    ):
        want = json.loads(path.read_text(encoding="utf-8"))
        for argv in argvs:
            name = " ".join(argv)
            got = run(argv)
            total += 1
            if {k: got[k] for k in keys} != want[name]:
                failed += 1
                print(f"mismatch: {name}", file=sys.stderr)
    print(f"{total - failed} of {total} goldens match (assertions {'on' if __debug__ else 'off'})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
