"""Fuzz gate for the request grammar.

Every golden-corpus request read from stdin (save ``verify-count-over-cap``,
whose count nudged to 399 or 400 would run hundreds of suite instances) is
mutated one to three times: a value replaced by a fixed atom, a list item
appended or deleted, a key deleted, or an integer nudged by 1 or 2.  Each
mutant goes through ``cli.main`` on a stdin string, and must exit 0, 2 or 3
(never 4, the code for an internal error), print one JSON line, and print
the same bytes when run again.  The atoms hold no mid-sized integer, so no
``count``, ``n`` or ``dim`` makes a slow request.
"""

import contextlib
import copy
import io
import json
import os
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jointtorsion import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "requests.jsonl")


def _seeds() -> list:
    seeds = []
    with open(CORPUS, encoding="utf-8") as fh:
        for line in fh:
            case = json.loads(line)
            if case["argv"] or case["name"] == "verify-count-over-cap":
                continue
            try:
                seeds.append(json.loads(case["stdin"]))
            except json.JSONDecodeError:
                pass
    return seeds


SEEDS = _seeds()

ATOMS = [
    None, True, False, 0, 1, -1, 2, -2, 2**64, -2**64, 1.5, -1.5, 0.0, -0.0,
    1e308, -1e308, 1e-308, "", "0", "1", "-1", "1/0", "0/0", "i", "-i", "x",
    "1/2", "1+i", "2-3/4*i", "1e5", " 1", "+1", "1.5", "½", "9" * 5000,
    [], [[]], [{}], [None], ["0"], ["1", "i"], [0], [1.0, 0.0], {}, {"": 0},
    {"a": 1}, {"0": [0.5, 0.0]}, {"coeffs": {}}, {"coeffs": {"1": [1, 0]}},
    {"leading": "1", "roots": []}, {"leading": "2", "roots": ["1/2"]},
]
KINDS = ("replace", "append", "delete-item", "delete-key", "nudge")


def _nodes(obj, path=()):
    """(path, value) for ``obj`` and every value inside it."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _set(obj, path, value):
    """``obj`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return obj


def _mutate(data, request):
    kind = data.draw(st.sampled_from(KINDS))
    nodes = list(_nodes(request))
    if kind == "append":
        lists = [v for _, v in nodes if isinstance(v, list)]
        if lists:
            data.draw(st.sampled_from(lists)).append(
                copy.deepcopy(data.draw(st.sampled_from(ATOMS))))
            return request
    elif kind == "delete-item":
        lists = [v for _, v in nodes if isinstance(v, list) and v]
        if lists:
            items = data.draw(st.sampled_from(lists))
            del items[data.draw(st.integers(0, len(items) - 1))]
            return request
    elif kind == "delete-key":
        dicts = [v for _, v in nodes if isinstance(v, dict) and v]
        if dicts:
            obj = data.draw(st.sampled_from(dicts))
            del obj[data.draw(st.sampled_from(sorted(obj)))]
            return request
    elif kind == "nudge":
        ints = [p for p, v in nodes
                if isinstance(v, int) and not isinstance(v, bool)]
        if ints:
            path = data.draw(st.sampled_from(ints))
            step = data.draw(st.sampled_from((-2, -1, 1, 2)))
            value = request
            for key in path:
                value = value[key]
            return _set(request, path, value + step)
    # a replacement, also where the drawn kind has nothing to act on
    path = data.draw(st.sampled_from([p for p, _ in nodes]))
    atom = data.draw(st.sampled_from(ATOMS))
    return _set(request, path, copy.deepcopy(atom))


def _run(text: str) -> tuple:
    """(exit code, stdout) of ``cli.main([])`` reading ``text``."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@settings(derandomize=True, deadline=None, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_corpus_requests_exit_0_2_or_3_with_stable_bytes(data):
    request = copy.deepcopy(data.draw(st.sampled_from(SEEDS)))
    for _ in range(data.draw(st.integers(1, 3))):
        request = _mutate(data, request)
    text = json.dumps(request)
    code, out = _run(text)
    assert code in (0, 2, 3), (text[:500], out[:500])
    assert out.endswith("\n") and out.count("\n") == 1, out[:500]
    assert isinstance(json.loads(out), dict)
    assert _run(text) == (code, out)
