"""Rewrite the expected outputs of the golden corpus from the current tree.

    PYTHONPATH=src python tests/golden/make_golden.py

Each line of ``requests.jsonl`` is one CLI invocation: a ``name``, the
``argv`` and ``stdin`` it runs with, and the exact ``stdout`` and ``exit``
code that ``cli.main`` gave for it.  This script replays every line and
writes back what the current tree prints.  To add a case, append a line
with its name, argv and stdin and run the script.

The script also writes ``digests.jsonl``: one line per case of
``DIGEST_CASES``, its name and the SHA-256 of its canonical output.  These
cases draw their inputs from the package's own ``randgen`` and reach past
the corpus: quadruples up to dim 12, the bases every homology space keeps,
and suite summaries at count 30.  All of them are exact.

Last it writes ``large.jsonl``, the same kind of line for ``LARGE_CASES``:
quadruples of both families at dims 16 and 20, each with every homology
space's bases, and the 12-root cap ``toeplitz_exact`` request.  These take
about 10 s together, so ``large.py`` checks them outside the test suite.

Rewrite the files only when a change alters output on purpose, and say so
in CHANGES.md: ``tests/test_golden.py`` and ``large.py`` hold the tree to
these bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from functools import partial

from jointtorsion import cli
from jointtorsion.koszul import QuadHomology
from jointtorsion.randgen import (child_rng, random_commuting_pair,
                                  random_exact_sequence, random_invertible,
                                  random_quadruple, random_singular_d_quadruple)
from jointtorsion.suites import SUITES, _disjoint_symbols, run_suite

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "requests.jsonl")
DIGESTS = os.path.join(HERE, "digests.jsonl")
LARGE = os.path.join(HERE, "large.jsonl")

# Instance i of every randgen case draws from child_rng(_SEED, i).
_SEED = 1


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


# -- digest cases: each returns its canonical output as text -------------------

def _canonical(obj) -> str:
    """The bytes ``cli`` writes for a response object."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _entries(m) -> list:
    return [e.to_text() for e in m.entries]


def _shaped(m) -> list:
    return [m.rows, m.cols, _entries(m)]


def _quad_response(family, dim):
    q = family(child_rng(_SEED, dim), dim)
    return _canonical(cli.run_request(cli.quad_request(q)))


def _homology_bases(family, dim):
    """Every homology space's rep_basis and project_map."""
    spaces = QuadHomology(family(child_rng(_SEED, dim), dim)).spaces
    return _canonical({label: [_shaped(sq.rep_basis), _shaped(sq.project_map)]
                       for label, sq in spaces.items()})


def _torsion_response(index):
    """A random exact sequence; odd instances also carry random bases."""
    rng = child_rng(_SEED, index)
    cpx = random_exact_sequence(rng, max_len=5, max_rank=3)
    spaces = cpx.dims_by_degree[::-1]
    payload = {"spaces": spaces,
               "differentials": [_entries(cpx.differential(k))
                                 for k in range(cpx.length, 0, -1)]}
    if index % 2:
        payload["bases"] = [_entries(random_invertible(rng, n, mag=2))
                            for n in spaces]
    return _canonical(cli.run_request({"cmd": "torsion", "payload": payload}))


def _pair_response(dim):
    a, b = random_commuting_pair(child_rng(_SEED, dim), dim)
    return _canonical(cli.run_request(
        {"cmd": "joint_torsion_pair",
         "payload": {"dim": dim, "a": _entries(a), "b": _entries(b)}}))


def _toeplitz_response(index):
    f, g = _disjoint_symbols(child_rng(_SEED, index))
    return _canonical(cli.run_request(cli.toeplitz_exact_request(f, g)))


def _cap_shape_response(each=8):
    """toeplitz_exact with ``each`` roots 1/p+1/qi in each symbol, on
    4 * ``each`` distinct 3-digit primes: the shape of request that sets the
    symbol caps, which it reaches at 12."""
    primes = [p for p in range(101, 1000)
              if all(p % k for k in range(2, int(p ** 0.5) + 1))][:4 * each]
    roots = [f"1/{p}+1/{q}i" for p, q in zip(primes[::2], primes[1::2])]
    return _canonical(cli.run_request(
        {"cmd": "toeplitz_exact",
         "payload": {"f": {"leading": "2", "roots": roots[:each]},
                     "g": {"leading": "3", "roots": roots[each:]}}}))


def _quad_with_bases(family, dim):
    """The response and every homology space's bases of one quadruple,
    drawn from child_rng(_SEED, 0)."""
    q = family(child_rng(_SEED, 0), dim)
    spaces = QuadHomology(q).spaces
    return _canonical({
        "response": cli.run_request(cli.quad_request(q)),
        "homology": {label: [_shaped(sq.rep_basis), _shaped(sq.project_map)]
                     for label, sq in spaces.items()}})


def _suite_summary(name, seed):
    return _canonical(run_suite(name, seed, 30))


def _digest_cases() -> dict:
    """Each case's name and the function that computes its output."""
    cases = {}
    for family_name, family in (("invertible-d", random_quadruple),
                                ("singular-d", random_singular_d_quadruple)):
        for dim in range(1, 13):
            cases[f"quad-{family_name}-dim{dim}"] = partial(
                _quad_response, family, dim)
            cases[f"homology-{family_name}-dim{dim}"] = partial(
                _homology_bases, family, dim)
    for i in range(6):
        cases[f"torsion-{i}"] = partial(_torsion_response, i)
        cases[f"pair-dim{i + 1}"] = partial(_pair_response, i + 1)
        cases[f"toeplitz-exact-{i}"] = partial(_toeplitz_response, i)
    cases["toeplitz-exact-cap-shape-8-roots"] = _cap_shape_response
    for name in SUITES:
        if name != "numeric-convergence":  # exact suites only
            for seed in (1, 2, 3):
                cases[f"suite-{name}-seed{seed}"] = partial(
                    _suite_summary, name, seed)
    return cases


def _large_cases() -> dict:
    cases = {}
    for family_name, family in (("invertible-d", random_quadruple),
                                ("singular-d", random_singular_d_quadruple)):
        for dim in (16, 20):
            cases[f"quad-{family_name}-dim{dim}"] = partial(
                _quad_with_bases, family, dim)
    cases["toeplitz-exact-cap-shape-12-roots"] = partial(
        _cap_shape_response, 12)
    return cases


DIGEST_CASES = _digest_cases()
LARGE_CASES = _large_cases()


def digest(name: str, cases=DIGEST_CASES) -> str:
    """The SHA-256 hex digest of case ``name``'s canonical output."""
    return hashlib.sha256(cases[name]().encode()).hexdigest()


def _write_digests(path, cases) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in cases:
            fh.write(json.dumps({"name": name,
                                 "sha256": digest(name, cases)},
                                sort_keys=True) + "\n")
    print(f"wrote {len(cases)} digests to {path}")


def main() -> int:
    with open(CORPUS, encoding="utf-8") as fh:
        cases = [json.loads(line) for line in fh if line.strip()]
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for case in cases:
            case["stdout"], case["exit"] = replay(case["argv"], case["stdin"])
            fh.write(json.dumps(case, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")
    _write_digests(DIGESTS, DIGEST_CASES)
    _write_digests(LARGE, LARGE_CASES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
