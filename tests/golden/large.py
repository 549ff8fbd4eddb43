"""Recompute the large golden cases and compare them with ``large.jsonl``.

    PYTHONPATH=src python tests/golden/large.py

Each line of ``large.jsonl`` names a case of ``make_golden.LARGE_CASES``
and the SHA-256 of its canonical output: quadruples of both families at
dims 16 and 20 with every homology space's bases, and the 12-root cap
``toeplitz_exact`` request.  These are the sizes at which the width of the
exact arithmetic matters, and they take about 10 s together, so they run
here rather than in the test suite.  Exits 1 if any case differs.
"""

import json
import os
import sys
import time

from make_golden import LARGE, LARGE_CASES, digest


def main() -> int:
    with open(LARGE, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    listed = [line["name"] for line in lines] == list(LARGE_CASES)
    if not listed:
        print(f"{os.path.basename(LARGE)} does not list every case once")
    failed = 0
    for line in lines:
        start = time.perf_counter()
        got = digest(line["name"], LARGE_CASES)
        ok = got == line["sha256"]
        failed += not ok
        print(f"{line['name']}: {'match' if ok else 'DIFFERS'} "
              f"({time.perf_counter() - start:.2f} s)")
    print(f"{len(lines) - failed} of {len(lines)} cases match")
    return 0 if listed and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
