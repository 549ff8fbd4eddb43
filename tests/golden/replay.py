"""Replay the golden corpus through fresh interpreters.

    PYTHONPATH=src python tests/golden/replay.py

Each line of ``requests.jsonl`` runs as its own ``python -m jointtorsion``
process, its stdout bytes and exit code must equal the stored ones, and it
must write nothing to stderr (no warning, no traceback).
``tests/test_golden.py`` replays the same lines in one process, after the
tests have imported every module; this script is what catches a failure
that shows only in a clean interpreter, such as an import cycle between
modules that a command imports on its first run (it would exit 4).
"""

import json
import os
import subprocess
import sys

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "requests.jsonl")


def main() -> int:
    with open(CORPUS, encoding="utf-8") as fh:
        cases = [json.loads(line) for line in fh if line.strip()]
    failed = 0
    for case in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "jointtorsion", *case["argv"]],
            input=case["stdin"].encode(), capture_output=True)
        if (proc.stdout, proc.returncode, proc.stderr) != (
                case["stdout"].encode(), case["exit"], b""):
            failed += 1
            print(f"{case['name']}: exit {proc.returncode}, expected "
                  f"{case['exit']}\n  stdout: {proc.stdout[:300]!r}\n"
                  f"  stderr: {proc.stderr[-300:]!r}")
    print(f"{len(cases) - failed} of {len(cases)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
