"""Rewrite the expected outputs of the golden corpus from the current tree.

    PYTHONPATH=src python tests/golden/make_golden.py

Each line of ``requests.jsonl`` is one CLI invocation: a ``name``, the
``argv`` and ``stdin`` it runs with, and the exact ``stdout`` and ``exit``
code that ``cli.main`` gave for it.  This script replays every line and
writes back what the current tree prints.  To add a case, append a line
with its name, argv and stdin and run the script.

Rewrite the corpus only when a change alters output on purpose, and say so
in CHANGES.md: ``tests/test_golden.py`` holds the tree to these bytes.
"""

import contextlib
import io
import json
import os
import sys

from jointtorsion import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "requests.jsonl")


def replay(argv, stdin):
    """(stdout text, exit code) of ``cli.main(argv)`` reading ``stdin``."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue(), code


def main() -> int:
    with open(CORPUS, encoding="utf-8") as fh:
        cases = [json.loads(line) for line in fh if line.strip()]
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for case in cases:
            case["stdout"], case["exit"] = replay(case["argv"], case["stdin"])
            fh.write(json.dumps(case, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
