"""Golden corpus: every CLI request in tests/golden/requests.jsonl must print
exactly the stored bytes and exit with the stored code.

The corpus covers every command, every suite, singular-D quadruples, the
dim 0 and dim 1 cases and the exit-2 and exit-3 paths.  Regenerate it with
tests/golden/make_golden.py only when a change alters output on purpose.
"""

import io
import json
import os

import pytest

from jointtorsion import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "requests.jsonl")

with open(CORPUS, encoding="utf-8") as _fh:
    CASES = [json.loads(line) for line in _fh if line.strip()]


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
