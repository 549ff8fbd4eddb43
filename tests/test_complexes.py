"""Homology and torsion of based exact sequences.

The fixed expected values below were derived by evaluating the defining
volume-element formula by hand: generator sets at the pivot columns, block
determinants c_k, and the alternating exponents anchored at the top space.
"""

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtorsion import (BasedExactSequence, ChainComplexSpec, DomainError,
                          ExactMatrix, QiScalar, graded_determinant,
                          torsion_scalar)
from jointtorsion.randgen import (child_rng, random_exact_sequence,
                                  random_invertible)
from jointtorsion.scalars import ONE


def mat(rows):
    return ExactMatrix.from_rows(rows)


def two_term(m):
    return BasedExactSequence([m.cols, m.rows], [m])


def rebase(seq, bases):
    """``seq`` on the given bases (top down): the same dims and the same
    differential objects, so their cached eliminations are reused."""
    return BasedExactSequence(
        [seq.dim(k) for k in range(seq.length + 1)][::-1],
        [seq.differential(k) for k in range(seq.length, 0, -1)], bases)


def homology_dims(c):
    return [c.homology(k).dim for k in range(c.length + 1)]


def test_chain_complex_rejects_nonzero_composition():
    with pytest.raises(DomainError, match="compose to zero"):
        ChainComplexSpec([1, 1, 1], [mat([[1]]), mat([[1]])])


@pytest.mark.parametrize("bad", [2.7, "2", 2.0, None])
def test_chain_complex_rejects_a_dim_that_is_not_an_int(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        BasedExactSequence([bad, 2], [ExactMatrix.identity(2)])


def test_chain_complex_rejects_a_negative_dim():
    with pytest.raises(DomainError, match="negative dimension -1"):
        ChainComplexSpec([0, -1], [ExactMatrix.zero(0, 0)])


def test_chain_complex_takes_bool_dims_as_ints():
    seq = BasedExactSequence([True, True], [ExactMatrix.identity(1)])
    assert [seq.dim(k) for k in range(seq.length + 1)] == [1, 1]
    assert torsion_scalar(seq) == ONE


def test_based_exact_sequence_is_its_own_complex():
    seq = BasedExactSequence([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])])
    assert isinstance(seq, ChainComplexSpec)
    assert not hasattr(seq, "complex")
    assert seq.length == 2
    assert homology_dims(seq) == [0, 0, 0]


def three_term(bases=None):
    return BasedExactSequence([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])],
                              bases)


@pytest.mark.parametrize("call, k", [
    ("dim", -1), ("dim", 3), ("differential", -1), ("differential", 4),
    ("basis", -1), ("basis", 3), ("homology", -1), ("homology", 3)])
@pytest.mark.parametrize("based", [False, True])
def test_degree_out_of_range_is_rejected(call, k, based):
    # a negative degree must not wrap to the top of the stored lists
    seq = three_term([ExactMatrix.identity(n) for n in (1, 2, 1)]
                     if based else None)
    with pytest.raises(DomainError, match=f"^degree {k} out of range$"):
        getattr(seq, call)(k)


def test_degree_range_ends_are_served():
    seq = three_term()
    assert [seq.dim(k) for k in range(3)] == [1, 2, 1]
    assert (seq.differential(0).rows, seq.differential(0).cols) == (0, 1)
    assert (seq.differential(3).rows, seq.differential(3).cols) == (1, 0)
    assert seq.basis(0) is None and seq.basis(2) is None
    # rank stays 0 outside 1..n: the folded-determinant sign reads rank(0)
    assert [seq.rank(k) for k in (-1, 0, 1, 2, 3)] == [0, 0, 1, 1, 0]


def test_homology_of_short_exact_three_term():
    c = ChainComplexSpec([1, 2, 1], [mat([[1], [0]]), mat([[0, 1]])])
    assert homology_dims(c) == [0, 0, 0]


def test_homology_of_zero_operator_two_term():
    c = ChainComplexSpec([1, 1], [mat([[0]])])
    assert homology_dims(c) == [1, 1]
    assert c.homology(0).dim == 1
    assert c.homology(1).dim == 1


def test_homology_of_identity_koszul_pair():
    # 0 -> C -> C^2 -> C -> 0 with unit entries everywhere is exact
    c = ChainComplexSpec([1, 2, 1], [mat([[-1], [1]]), mat([[1, 1]])])
    assert homology_dims(c) == [0, 0, 0]


def test_torsion_of_isomorphism_is_determinant():
    seq = two_term(mat([[2, 0], [0, 3]]))
    assert torsion_scalar(seq) == QiScalar(6)


def test_torsion_identity_blocks():
    seq = BasedExactSequence([1, 2, 1], [mat([[1], [0]]), mat([[0, 1]])])
    assert torsion_scalar(seq) == QiScalar(1)


def test_torsion_three_term_hand_value():
    # c_1 = det[[1, 1], [1, 0]] = -1 and c_0 = 1, so the torsion is -1.
    seq = BasedExactSequence([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])])
    assert torsion_scalar(seq) == QiScalar(-1)


def test_torsion_rejects_non_exact():
    with pytest.raises(DomainError, match="sequence not exact"):
        BasedExactSequence([1, 1], [mat([[0]])])


def test_two_term_equals_determinant_on_randoms():
    rng = child_rng(13, 0)
    for _ in range(30):
        n = rng.randint(1, 8)
        m = random_invertible(rng, n, mag=3)
        assert torsion_scalar(two_term(m)) == m.determinant()


def test_generator_selection_invariance():
    rng = child_rng(13, 1)
    for trial in range(25):
        seq = random_exact_sequence(rng, max_len=4, max_rank=2)

        def pick(k, d, rng=rng):
            rank = d.rank()
            cols = list(range(d.cols))
            while True:
                rng.shuffle(cols)
                chosen = sorted(cols[:rank])
                if d.select_columns(chosen).rank() == rank:
                    return chosen

        assert reference_torsion(seq, selector=pick) == torsion_scalar(seq)


def hashlib_fingerprint(seq):
    dims = [seq.dim(k) for k in range(seq.length + 1)]
    digest = hashlib.sha256(repr(dims).encode())
    for k in range(seq.length, -1, -1):
        g = seq.basis(k) or ExactMatrix.identity(seq.dim(k))
        digest.update(";".join(e.to_text() for e in g.entries).encode())
    return digest.hexdigest()[:16]


def test_fingerprint_is_the_sha256_hashlib_gives():
    three_term = ([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])])
    for seq in (
            two_term(mat([[2, QiScalar(0, 1)], [0, 3]])),
            BasedExactSequence(*three_term),
            BasedExactSequence(*three_term, [
                mat([[2]]), mat([[1, QiScalar(1, 2)], [0, QiScalar(0, 1)]]),
                mat([[QiScalar(-3, 1)]])])):
        assert seq.fingerprint() == hashlib_fingerprint(seq)


def test_rebase_identity_keeps_torsion():
    seq = BasedExactSequence([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])])
    rebased = rebase(seq, [ExactMatrix.identity(1), ExactMatrix.identity(2),
                           ExactMatrix.identity(1)])
    assert torsion_scalar(rebased) == torsion_scalar(seq)


def test_rebase_scaling_transformation():
    # Doubling the basis of the middle (unstarred) space of an exact
    # 0 -> C -> C^2 -> C -> 0 divides the torsion by det(g) = 4... times
    # the expected law below, verified by recomputation.
    seq = BasedExactSequence([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])])
    before = torsion_scalar(seq)
    g = ExactMatrix.identity(2).scale(QiScalar(2))
    rebased = rebase(
        seq, [ExactMatrix.identity(1), g, ExactMatrix.identity(1)])
    after = torsion_scalar(rebased)
    # middle space sits at unstarred position (s = +1): value scales by 1/det g
    assert after == before * g.determinant().inverse()


def test_rebase_transformation_law_random():
    rng = child_rng(13, 2)
    for _ in range(15):
        seq = random_exact_sequence(rng, max_len=4, max_rank=2)
        n = seq.length
        gs = [random_invertible(rng, seq.dim(k), mag=2)
              if seq.dim(k) else ExactMatrix.identity(0)
              for k in range(n, -1, -1)]
        before = torsion_scalar(seq)
        after = torsion_scalar(rebase(seq, gs))
        expected = before
        for pos, g in enumerate(gs):  # top-down: degree n - pos
            k = n - pos
            det = g.determinant()
            starred = (n - k) % 2 == 0
            expected = expected * (det if starred else det.inverse())
        assert after == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.booleans())
def test_rebase_law_property(seed, full_length):
    # torsion(seq based by g) = torsion(seq) * prod_k det(g_k)^(-s_k), with
    # s_k = -1 at the starred positions k = n (mod 2) and +1 elsewhere
    rng = child_rng(41, seed)
    seq = random_exact_sequence(rng, max_len=5, max_rank=3,
                                exact_len=full_length)
    n = seq.length
    by_degree = [random_invertible(rng, seq.dim(k), mag=2)
                 if seq.dim(k) else ExactMatrix.identity(0)
                 for k in range(n + 1)]
    rebased = rebase(seq, by_degree[::-1])
    expected = torsion_scalar(seq)
    for k, g in enumerate(by_degree):
        s_k = -1 if (n - k) % 2 == 0 else 1
        det = g.determinant()
        expected = expected * (det.inverse() if s_k == 1 else det)
    assert torsion_scalar(rebased) == expected


def test_rebase_rejects_singular():
    seq = two_term(mat([[1]]))
    with pytest.raises(DomainError, match="singular change of basis"):
        rebase(seq, [mat([[0]]), ExactMatrix.identity(1)])


def test_rebase_permutation_flips_sign():
    # swapping two basis vectors at an unstarred position negates the torsion
    seq = two_term(mat([[2, 0], [0, 3]]))
    swap = mat([[0, 1], [1, 0]])
    rebased = rebase(seq, [ExactMatrix.identity(2), swap])
    assert torsion_scalar(rebased) == -torsion_scalar(seq)


# -- Laplace-minor factors against the full block determinants -----------------

def reference_torsion(seq, selector=None):
    """The product of c_k = det(g_k^-1 [d_{k+1} T_{k+1} | T_k]) to the
    alternating exponents, each block built and eliminated in full."""
    n = seq.length
    selections = {0: [], n + 1: []}
    for k in range(1, n + 1):
        d = seq.differential(k)
        selections[k] = (list(d.rref().pivots) if selector is None
                         else list(selector(k, d)))
    value = ONE
    for k in range(n, -1, -1):
        image = seq.differential(k + 1).select_columns(selections[k + 1])
        own = ExactMatrix.identity(seq.dim(k)).select_columns(selections[k])
        square = image.hstack(own)
        if seq.basis(k) is not None:
            square = seq.basis(k).inverse() * square
        c = square.determinant()
        value = value * (c.inverse() if (n - k) % 2 == 0 else c)
    return value


def shuffled_selector(seed):
    """Picks independent columns greedily in a seeded random order, so the
    selection is valid but neither the pivots nor sorted."""
    def pick(k, d):
        order = list(range(d.cols))
        random.Random(seed * 64 + k).shuffle(order)
        chosen = []
        for j in order:
            if d.select_columns(chosen + [j]).rank() > len(chosen):
                chosen.append(j)
        return chosen
    return pick


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.booleans(),
       st.booleans())
def test_laplace_factors_match_full_block_determinants(seed, based, pick):
    rng = child_rng(43, seed)
    seq = random_exact_sequence(rng, max_len=4, max_rank=3)
    if based:
        seq = rebase(seq, [
            random_invertible(rng, dim, mag=2) if dim
            else ExactMatrix.identity(0)
            for dim in reversed([seq.dim(k) for k in range(seq.length + 1)])])
    selector = shuffled_selector(seed) if pick else None
    assert torsion_scalar(seq) == reference_torsion(seq, selector=selector)
    assert graded_determinant(seq) == torsion_scalar(seq)
