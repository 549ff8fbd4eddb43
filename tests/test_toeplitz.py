"""Exact Toeplitz layer: symbol classification, cokernel models, joint
torsion versus the tame-symbol oracle, and the Steinberg relations."""

import io
import json
import sys
from fractions import Fraction

import pytest

from jointtorsion import (AnalyticSymbol, BasedExactSequence, DomainError,
                          ExactMatrix, QiScalar, coker_action, joint_torsion_pair, pseudoinv_formula,
                          qi_modulus_cmp_one, restriction_sequences,
                          tame_symbol, toeplitz_joint_torsion, torsion_scalar)
from jointtorsion import linalg
from jointtorsion.randgen import child_rng, random_symbol
from jointtorsion.suites import _disjoint_symbols, run_suite


def sym(leading, roots):
    if not isinstance(leading, QiScalar):
        leading = QiScalar(leading)
    return AnalyticSymbol(leading, roots)


def test_make_symbol_winding():
    assert sym(1, [QiScalar(1, 0, 2)]).winding == 1
    assert sym(1, [QiScalar(2)]).winding == 0


def test_make_symbol_rejects_circle_root():
    with pytest.raises(DomainError, match="not Fredholm"):
        sym(1, [QiScalar(0, 1)])


def test_make_symbol_rejects_zero_leading():
    with pytest.raises(DomainError, match="nonzero"):
        sym(0, [])


def test_coker_action_single_root():
    f = sym(1, [QiScalar(1, 0, 2)])
    g = sym(1, [QiScalar(1, 0, 3)])
    assert coker_action(f, g) == ExactMatrix.from_rows([["1/6"]])


def test_coker_action_companion():
    f = sym(1, [QiScalar(1, 0, 2), QiScalar(-1, 0, 2)])
    g = sym(1, [QiScalar(0)])  # g(z) = z
    assert coker_action(f, g) == ExactMatrix.from_rows([[0, "1/4"], [1, 0]])


def reference_coker_action(f, g):
    """lead(g) * prod over the roots r of g of (Z - r I), with Z the
    companion matrix of f_in built from its coefficients, each I - scaled
    diagonal written out in full."""
    d = f.winding
    coeffs = [QiScalar(1)]
    for root in f.inside_roots:
        nxt = [QiScalar(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - root * c
        coeffs = nxt
    rows = [[QiScalar(0)] * d for _ in range(d)]
    for j in range(d - 1):
        rows[j + 1][j] = QiScalar(1)
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    companion = ExactMatrix(d, d, [e for row in rows for e in row])

    def diag(value):
        return ExactMatrix(d, d, [value if i == j else QiScalar(0)
                                  for i in range(d) for j in range(d)])

    result = diag(g.leading)
    for root in g.roots:
        result = result * (companion - diag(root))
    return result


def test_coker_action_equals_the_companion_chain():
    rng = child_rng(23, 7)
    windings = []
    for _ in range(120):
        f = random_symbol(rng, max_roots=3)
        g = random_symbol(rng, max_roots=3)
        assert coker_action(f, g) == reference_coker_action(f, g)
        assert coker_action(g, f) == reference_coker_action(g, f)
        windings += [f.winding, g.winding]
    assert {0, 1, 2, 3} <= set(windings)


def test_roots_sort_by_real_then_imaginary_part():
    texts = ["1/2+1/3*i", "-3/7", "1/2-1/5*i", "-3/7+2*i", "5/3*i", "-2/3*i",
             "-1/2-1/4*i", "1/2+1/3*i", "2/9", "-3/7-5/6*i", "3", "-5/4"]
    roots = [QiScalar.parse(t) for t in texts]
    expected = sorted(roots,
                      key=lambda r: (Fraction(r.a, r.d), Fraction(r.b, r.d)))
    for given in (roots, roots[::-1], roots[5:] + roots[:5]):
        assert list(sym(1, given).roots) == expected
    assert [r.to_text() for r in expected] == [
        "-5/4", "-1/2-1/4*i", "-3/7-5/6*i", "-3/7", "-3/7+2*i", "-2/3*i",
        "5/3*i", "2/9", "1/2-1/5*i", "1/2+1/3*i", "1/2+1/3*i", "3"]


def test_coker_action_empty_for_outside_roots():
    f = sym(1, [QiScalar(2)])
    g = sym(1, [QiScalar(1, 0, 3)])
    action = coker_action(f, g)
    assert action.rows == 0 and action.cols == 0


def test_coker_action_determinant_is_evaluation_product():
    rng = child_rng(23, 0)
    for _ in range(25):
        f = random_symbol(rng, max_roots=3)
        g = random_symbol(rng, max_roots=3)
        expected = QiScalar(1)
        for a in f.inside_roots:
            expected = expected * g.evaluate(a)
        action = coker_action(f, g)
        det = action.determinant() if action.rows else QiScalar(1)
        assert det == expected


def test_coker_actions_commute():
    rng = child_rng(23, 1)
    for _ in range(15):
        f = random_symbol(rng, max_roots=3, min_roots=1)
        g1 = random_symbol(rng, max_roots=2)
        g2 = random_symbol(rng, max_roots=2)
        m1, m2 = coker_action(f, g1), coker_action(f, g2)
        assert m1 * m2 == m2 * m1


def test_joint_torsion_examples():
    f = sym(1, [QiScalar(1, 0, 2)])
    g = sym(1, [QiScalar(1, 0, 3)])
    assert (toeplitz_joint_torsion(*restriction_sequences(f, g))
            == QiScalar(-1))
    g_out = sym(1, [QiScalar(2)])
    assert (toeplitz_joint_torsion(*restriction_sequences(f, g_out))
            == QiScalar(-2, 0, 3))
    f2 = sym(2, [QiScalar(0)])            # 2z
    g2 = sym(-2, [QiScalar(1, 0, 2)])     # 1 - 2z
    assert (toeplitz_joint_torsion(*restriction_sequences(f2, g2))
            == QiScalar(1))


def test_tame_symbol_examples():
    half, third = QiScalar(1, 0, 2), QiScalar(1, 0, 3)
    assert tame_symbol(sym(1, [half]), sym(1, [third])) == QiScalar(-1)
    assert tame_symbol(sym(1, [QiScalar(0)]), sym(1, [half])) == QiScalar(-1)


def test_tame_symbol_multiplicative_instance():
    f1 = sym(1, [QiScalar(1, 0, 2)])
    f2 = sym(1, [QiScalar(1, 0, 4)])
    g = sym(1, [QiScalar(1, 0, 3)])
    assert tame_symbol(f1 * f2, g) == tame_symbol(f1, g) * tame_symbol(f2, g)


def test_common_inside_root_rejected():
    f = sym(1, [QiScalar(1, 0, 2)])
    g = sym(3, [QiScalar(1, 0, 2), QiScalar(5)])
    with pytest.raises(DomainError, match="not acyclic"):
        toeplitz_joint_torsion(*restriction_sequences(f, g))
    with pytest.raises(DomainError, match="not acyclic"):
        tame_symbol(f, g)


def test_joint_torsion_equals_tame_symbol():
    rng = child_rng(23, 2)
    checked = 0
    while checked < 60:
        f = random_symbol(rng, max_roots=3)
        g = random_symbol(rng, max_roots=3)
        if set(f.inside_roots) & set(g.inside_roots):
            continue
        assert (toeplitz_joint_torsion(*restriction_sequences(f, g))
                == tame_symbol(f, g))
        checked += 1


def test_steinberg_multiplicativity():
    rng = child_rng(23, 3)
    checked = 0
    while checked < 25:
        f1 = random_symbol(rng, max_roots=2)
        f2 = random_symbol(rng, max_roots=2)
        g = random_symbol(rng, max_roots=2)
        inside_g = set(g.inside_roots)
        if (set(f1.inside_roots) | set(f2.inside_roots)) & inside_g:
            continue
        assert tame_symbol(f1 * f2, g) == tame_symbol(f1, g) * tame_symbol(f2, g)
        checked += 1


def test_steinberg_skew_symmetry():
    rng = child_rng(23, 4)
    checked = 0
    while checked < 25:
        f = random_symbol(rng, max_roots=3)
        g = random_symbol(rng, max_roots=3)
        if set(f.inside_roots) & set(g.inside_roots):
            continue
        assert tame_symbol(f, g) * tame_symbol(g, f) == QiScalar(1)
        checked += 1


def test_steinberg_one_minus_a():
    # f = cz and 1 - f = -c(z - 1/c): the tame symbol of the pair is 1.
    rng = child_rng(23, 5)
    checked = 0
    while checked < 25:
        p, q = rng.randint(-6, 6), rng.randint(1, 6)
        r, s = rng.randint(-6, 6), rng.randint(1, 6)
        c = QiScalar(p * s, r * q, q * s)  # p/q + (r/s) i
        if c.is_zero() or qi_modulus_cmp_one(c) == "equal":
            continue
        f = AnalyticSymbol(c, [QiScalar(0)])
        one_minus_f = AnalyticSymbol(-c, [c.inverse()])
        assert tame_symbol(f, one_minus_f) == QiScalar(1)
        checked += 1


def test_pseudoinv_formula_on_toeplitz_models():
    f = sym(1, [QiScalar(1, 0, 2)])
    g = sym(1, [QiScalar(1, 0, 3)])
    eps_f, eps_g = restriction_sequences(f, g)
    assert pseudoinv_formula(eps_f, eps_g, 0, 0) == QiScalar(-1)
    rng = child_rng(23, 6)
    checked = 0
    while checked < 20:
        f = random_symbol(rng, max_roots=3)
        g = random_symbol(rng, max_roots=3)
        if set(f.inside_roots) & set(g.inside_roots):
            continue
        eps_f, eps_g = restriction_sequences(f, g)
        assert (pseudoinv_formula(eps_f, eps_g, 0, 0)
                == toeplitz_joint_torsion(eps_f, eps_g))
        checked += 1


def padded_restriction_sequences(f, g):
    """The pair's cokernel actions in the seven-space shape of its
    eight-term sequences, 0 -> 0 -> 0 -> 0 -> m -> m -> 0 with the action
    at degree 2 and every other map empty, built from fresh actions."""
    zero = ExactMatrix.zero

    def padded(action):
        m = action.rows
        return BasedExactSequence(
            [0, 0, 0, 0, m, m, 0],
            [zero(0, 0), zero(0, 0), zero(0, 0), zero(m, 0), action,
             zero(0, m)])

    return padded(coker_action(g, f)), padded(coker_action(f, g))


def test_two_term_restriction_sequences_match_the_padded_shape():
    # The one nonzero block sits at degree 1 of 1 and at degree 2 of 6:
    # an even distance from the top in both, so both torsions read its
    # determinant with the same exponent and both foldings put it in D_+.
    rng = child_rng(23, 8)
    rootless = 0
    for _ in range(200):
        f, g = _disjoint_symbols(rng)
        rootless += not (f.roots and g.roots)
        eps = restriction_sequences(f, g)
        padded = padded_restriction_sequences(f, g)
        assert [seq.length for seq in eps] == [1, 1]
        for seq, reference in zip(eps, padded):
            assert torsion_scalar(seq) == torsion_scalar(reference)
        assert (pseudoinv_formula(*eps, 0, 0)
                == pseudoinv_formula(*padded, 0, 0))
    assert rootless


def test_singular_cokernel_action_is_an_internal_error(monkeypatch, capsys):
    # disjoint inside roots make every action invertible, so a singular one
    # is a broken theorem: an internal error (exit 4), not a domain error
    from jointtorsion import cli, toeplitz

    monkeypatch.setattr(toeplitz, "coker_action",
                        lambda f, g: ExactMatrix.zero(f.winding, f.winding))
    f = sym(1, [QiScalar(1, 0, 2)])
    g = sym(1, [QiScalar(1, 0, 3)])
    message = "internal: cokernel action singular despite disjoint inside roots"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        restriction_sequences(f, g)
    request = json.dumps(cli.toeplitz_exact_request(f, g))
    monkeypatch.setattr(sys, "stdin", io.StringIO(request))
    assert cli.main([]) == 4
    assert json.loads(capsys.readouterr().out) == {
        "error": f"RuntimeError: {message}"}


def test_finite_pair_from_cokernel_models_is_consistent():
    # multiplication matrices on one quotient ring commute, so they feed the
    # finite joint torsion pipeline; triviality holds there as usual
    f = sym(1, [QiScalar(1, 0, 2), QiScalar(-1, 0, 3)])
    g = sym(1, [QiScalar(1, 0, 5)])
    a = coker_action(f, g)
    b = coker_action(f, sym(1, [QiScalar(2, 0, 3)]))
    assert joint_torsion_pair(a, b).value == QiScalar(1)


def test_tame_oracle_instance_makes_at_most_three_eliminations(monkeypatch):
    # Each cokernel action is built once, so its restriction sequence's
    # exactness check, torsion and folded determinant share its one forward
    # pass, and empty matrices are never eliminated.  Building the actions
    # twice and eliminating every empty block took 16.8 per instance.
    calls = []
    kernel = linalg._fraction_free

    def counted(rows, slots, cols, top):
        calls.append(top < len(rows))
        return kernel(rows, slots, cols, top)

    monkeypatch.setattr(linalg, "_fraction_free", counted)
    summary = run_suite("tame-oracle", 7, 64)
    assert summary["passes"] == 64
    assert len(calls) <= 3 * 64


def test_tame_oracle_instance_builds_at_most_six_rref_results(monkeypatch):
    # Two two-term sequences of one action each: one forward pass per
    # action, and per sequence one for the zero D_- block's pseudoinverse
    # and one for the folded sum.  The padded eight-term sequences built
    # 16 per instance, 10 of them for empty blocks.
    built = []

    class Counted(linalg.RrefResult):
        __slots__ = ()

        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(linalg, "RrefResult", Counted)
    summary = run_suite("tame-oracle", 7, 64)
    assert summary["passes"] == 64
    assert len(built) <= 6 * 64
