"""Every sign convention the docstrings call forced is load-bearing.

Each mutant changes one convention in the source of one module: the old
text must occur there exactly once, so that a refactor which moves it
fails here and the table moves with it.  The mutated source is executed
into a fresh module, the names ``suites`` imports from that module are
pointed at the mutant's, and one named suite at seed 1 and count 30 must
then fail at least one instance or raise.  This is mutation analysis (DeMillo,
Lipton and Sayward, IEEE Computer 11(4), 1978) restricted to the
conventions whose values the suites can see.
"""

import types

import pytest

from jointtorsion import complexes, koszul, suites, toeplitz
from jointtorsion.suites import run_suite

# (id, module, old text, new text, the suite that catches the mutant)
MUTANTS = [
    ("lambda-ker-B-cap-ker-D-term-dropped", koszul,
     'dims["ker_B_cap_ker_D"] * (dims["ker_D"] + dims["ker_B"])', "0",
     "finite-triviality-singular"),
    ("lambda-H0-term-dropped", koszul,
     '+ dims["H0"] * (dims["coker_A"] + dims["coker_C"])', "",
     "finite-triviality"),
    ("pairing-ker-B-term-dropped", koszul,
     'dims["ker_B"] * (dims["ker_C"] + 1)', "0",
     "finite-triviality"),
    ("lambda-ker-B-cap-ker-D-term-dropped-direct-sum", koszul,
     'dims["ker_B_cap_ker_D"] * (dims["ker_D"] + dims["ker_B"])', "0",
     "direct-sum"),
    ("pairing-ker-D-term-dropped", koszul,
     '+ dims["ker_D"] * (dims["ker_A"] + 1)', "",
     "finite-triviality-singular"),
    ("pairing-ker-D-term-dropped-direct-sum", koszul,
     '+ dims["ker_D"] * (dims["ker_A"] + 1)', "",
     "direct-sum"),
    # direct-sum cannot catch this one: the sign it flips is multiplicative
    # under a direct sum, so both sides of that suite's row flip together
    ("eps-BC-first-map-plus-i", koszul,
     "(-ident, q.b,", "(ident, q.b,",
     "finite-triviality-singular"),
    ("sigma-kappa-sign-dropped", koszul,
     "sign = -1 if (kappa(a) + kappa(d)) % 2 else 1", "sign = 1",
     "finite-triviality"),
    # caught by the pairs whose two rank-parity exponents sum to an odd
    # number, which the odd instances' nilpotent draws make in a fair share
    # (see test_rank_parity_mutant_fails_at_every_seed)
    ("rank-parity-correction-zero", koszul,
     "return seq.rank(n - 1) * (seq.rank(n) + seq.rank(1) + 1)", "return 0",
     "pseudoinverse"),
    ("fold-parity-swapped", koszul,
     "grids[(n - k) % 2]", "grids[(n - k + 1) % 2]",
     "tame-oracle"),
    ("torsion-star-parity-flipped", complexes,
     "starred = (n - k) % 2 == 0", "starred = (n - k) % 2 == 1",
     "torsion-determinant"),
    ("minor-sign-s-r-term-dropped", complexes,
     "sum(own) + s * r + s * (s - 1) // 2", "sum(own) + s * (s - 1) // 2",
     "pseudoinverse"),
    ("action-without-leading-coefficient", toeplitz,
     "h[j] = g.leading", "h[j] = ONE",
     "tame-oracle"),
]


def run_mutated(monkeypatch, module, old, new, suite, seed=1):
    """``run_suite(suite, seed, 30)`` with ``module``'s source changed from
    ``old`` to ``new`` and executed into a fresh module, whose names are
    put in place of those ``suites`` imports from ``module``."""
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert source.count(old) == 1, f"{old!r} must occur once in {module.__name__}"
    mutant = types.ModuleType(module.__name__, module.__doc__)
    mutant.__package__ = module.__package__
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         mutant.__dict__)
    for name, value in vars(suites).items():
        if getattr(module, name, None) is value:
            monkeypatch.setattr(suites, name, getattr(mutant, name))
    return run_suite(suite, seed, 30)


@pytest.mark.parametrize("module, old, new, suite",
                         [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_suite_catches_mutant(module, old, new, suite, monkeypatch):
    try:
        summary = run_mutated(monkeypatch, module, old, new, suite)
    except RuntimeError as exc:  # a broken invariant the package noticed
        assert str(exc).startswith("internal: ")
        return
    assert summary["passes"] < 30, summary


@pytest.mark.parametrize("module, suite", [(koszul, "pseudoinverse"),
                                           (complexes, "torsion-determinant"),
                                           (toeplitz, "tame-oracle")],
                         ids=["koszul", "complexes", "toeplitz"])
def test_unmutated_copy_passes(module, suite, monkeypatch):
    # the same harness with the text left as it is: a suite fails above
    # because of the mutant, not because it runs a fresh copy of the module
    old = next(m[2] for m in MUTANTS if m[1] is module)
    summary = run_mutated(monkeypatch, module, old, old, suite)
    assert summary["passes"] == 30, summary


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank_parity_mutant_fails_at_every_seed(seed, monkeypatch):
    # not only one lucky pair: at least 3 of the 30 instances at each seed
    _, module, old, new, suite = next(
        m for m in MUTANTS if m[0] == "rank-parity-correction-zero")
    summary = run_mutated(monkeypatch, module, old, new, suite, seed)
    assert summary["passes"] <= 27, summary
