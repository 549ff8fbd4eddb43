"""Golden corpus: every CLI request in tests/golden/requests.jsonl must print
exactly the stored bytes and exit with the stored code, and every case named
in tests/golden/digests.jsonl must hash to the stored SHA-256.

The corpus covers every command, every suite, singular-D quadruples, the
dim 0 and dim 1 cases and the exit-2 and exit-3 paths.  The digests cover
quadruples of both families up to dim 12 with their homology bases, the
exact suites at count 30, and torsion, pair and toeplitz_exact responses.
Regenerate both with tests/golden/make_golden.py only when a change alters
output on purpose.
"""

import importlib.util
import io
import json
import os

import pytest

from jointtorsion import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CORPUS = os.path.join(GOLDEN, "requests.jsonl")
DIGESTS = os.path.join(GOLDEN, "digests.jsonl")

with open(CORPUS, encoding="utf-8") as _fh:
    CASES = [json.loads(line) for line in _fh if line.strip()]
with open(DIGESTS, encoding="utf-8") as _fh:
    DIGEST_LINES = [json.loads(line) for line in _fh if line.strip()]

_spec = importlib.util.spec_from_file_location(
    "make_golden", os.path.join(GOLDEN, "make_golden.py"))
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_corpus_covers_every_command_and_exit_code():
    commands = set()
    for case in CASES:
        try:
            commands.add(json.loads(case["stdin"]).get("cmd"))
        except json.JSONDecodeError:
            pass
        if "--suite" in case["argv"]:
            commands.add("verify")
    assert set(cli._COMMANDS) <= commands
    assert {case["exit"] for case in CASES} == {0, 2, 3}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_response(case, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    code = cli.main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def test_digest_file_lists_every_case_once():
    assert [line["name"] for line in DIGEST_LINES] == list(
        make_golden.DIGEST_CASES)


@pytest.mark.parametrize("line", DIGEST_LINES,
                         ids=[line["name"] for line in DIGEST_LINES])
def test_digest(line):
    assert make_golden.digest(line["name"]) == line["sha256"]
