"""Homology and torsion of based exact sequences.

The fixed expected values below were derived by evaluating the defining
volume-element formula by hand: generator sets at the pivot columns, block
determinants c_k, and the alternating exponents anchored at the top space.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtorsion import (BasedExactSequence, ChainComplexSpec, DomainError,
                          ExactMatrix, QiScalar, torsion_scalar)
from jointtorsion.randgen import (child_rng, random_exact_sequence,
                                  random_invertible)
from jointtorsion.scalars import ONE


def mat(rows):
    return ExactMatrix.from_rows(rows)


def two_term(m):
    return BasedExactSequence(ChainComplexSpec([m.cols, m.rows], [m]))


def test_chain_complex_rejects_nonzero_composition():
    with pytest.raises(DomainError, match="compose to zero"):
        ChainComplexSpec([1, 1, 1], [mat([[1]]), mat([[1]])])


def test_homology_of_short_exact_three_term():
    c = ChainComplexSpec([1, 2, 1], [mat([[1], [0]]), mat([[0, 1]])])
    assert c.homology_dims() == [0, 0, 0]


def test_homology_of_zero_operator_two_term():
    c = ChainComplexSpec([1, 1], [mat([[0]])])
    assert c.homology_dims() == [1, 1]
    assert c.homology(0).dim == 1
    assert c.homology(1).dim == 1


def test_homology_of_identity_koszul_pair():
    # 0 -> C -> C^2 -> C -> 0 with unit entries everywhere is exact
    c = ChainComplexSpec([1, 2, 1], [mat([[-1], [1]]), mat([[1, 1]])])
    assert c.homology_dims() == [0, 0, 0]


def test_torsion_of_isomorphism_is_determinant():
    seq = two_term(mat([[2, 0], [0, 3]]))
    assert torsion_scalar(seq) == QiScalar(6)


def test_torsion_identity_blocks():
    seq = BasedExactSequence(
        ChainComplexSpec([1, 2, 1], [mat([[1], [0]]), mat([[0, 1]])]))
    assert torsion_scalar(seq) == QiScalar(1)


def test_torsion_three_term_hand_value():
    # c_1 = det[[1, 1], [1, 0]] = -1 and c_0 = 1, so the torsion is -1.
    seq = BasedExactSequence(
        ChainComplexSpec([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])]))
    assert torsion_scalar(seq) == QiScalar(-1)


def test_torsion_rejects_non_exact():
    with pytest.raises(DomainError, match="sequence not exact"):
        BasedExactSequence(ChainComplexSpec([1, 1], [mat([[0]])]))


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

        base = torsion_scalar(seq)
        assert torsion_scalar(seq, selector=pick) == base


def test_rebase_identity_keeps_torsion():
    seq = BasedExactSequence(
        ChainComplexSpec([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])]))
    rebased = BasedExactSequence(seq.complex, [ExactMatrix.identity(1),
                                               ExactMatrix.identity(2),
                                               ExactMatrix.identity(1)])
    assert torsion_scalar(rebased) == torsion_scalar(seq)


def test_rebase_scaling_transformation():
    # Doubling the basis of the middle (unstarred) space of an exact
    # 0 -> C -> C^2 -> C -> 0 divides the torsion by det(g) = 4... times
    # the expected law below, verified by recomputation.
    seq = BasedExactSequence(
        ChainComplexSpec([1, 2, 1], [mat([[1], [1]]), mat([[1, -1]])]))
    before = torsion_scalar(seq)
    g = ExactMatrix.scalar_diag(2, QiScalar(2))
    rebased = BasedExactSequence(
        seq.complex, [ExactMatrix.identity(1), g, ExactMatrix.identity(1)])
    after = torsion_scalar(rebased)
    # middle space sits at unstarred position (s = +1): value scales by 1/det g
    assert after == before * g.determinant().inverse()


def test_rebase_transformation_law_random():
    rng = child_rng(13, 2)
    for _ in range(15):
        seq = random_exact_sequence(rng, max_len=4, max_rank=2)
        n = seq.length
        gs = [random_invertible(rng, seq.complex.dim(k), mag=2)
              if seq.complex.dim(k) else ExactMatrix.identity(0)
              for k in range(n, -1, -1)]
        before = torsion_scalar(seq)
        after = torsion_scalar(BasedExactSequence(seq.complex, gs))
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
    by_degree = [random_invertible(rng, seq.complex.dim(k), mag=2)
                 if seq.complex.dim(k) else ExactMatrix.identity(0)
                 for k in range(n + 1)]
    rebased = BasedExactSequence(seq.complex, by_degree[::-1])
    expected = torsion_scalar(seq)
    for k, g in enumerate(by_degree):
        s_k = -1 if (n - k) % 2 == 0 else 1
        det = g.determinant()
        expected = expected * (det.inverse() if s_k == 1 else det)
    assert torsion_scalar(rebased) == expected


def test_rebase_rejects_singular():
    seq = two_term(mat([[1]]))
    with pytest.raises(DomainError, match="singular change of basis"):
        BasedExactSequence(seq.complex, [mat([[0]]), ExactMatrix.identity(1)])


def test_rebase_permutation_flips_sign():
    # swapping two basis vectors at an unstarred position negates the torsion
    seq = two_term(mat([[2, 0], [0, 3]]))
    swap = mat([[0, 1], [1, 0]])
    rebased = BasedExactSequence(seq.complex, [ExactMatrix.identity(2), swap])
    assert torsion_scalar(rebased) == -torsion_scalar(seq)


# -- Laplace-minor factors against the full block determinants -----------------

def reference_torsion(seq, selector=None):
    """The product of c_k = det(g_k^-1 [d_{k+1} T_{k+1} | T_k]) to the
    alternating exponents, each block built and eliminated in full."""
    cpx = seq.complex
    n = cpx.length
    selections = {0: [], n + 1: []}
    for k in range(1, n + 1):
        d = cpx.differential(k)
        selections[k] = (list(d.rref().pivots) if selector is None
                         else list(selector(k, d)))
    value = ONE
    for k in range(n, -1, -1):
        image = cpx.differential(k + 1).select_columns(selections[k + 1])
        own = ExactMatrix.identity(cpx.dim(k)).select_columns(selections[k])
        square = image.hstack(own)
        binv = seq.basis_inverse(k)
        if binv is not None:
            square = binv * square
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
        seq = BasedExactSequence(seq.complex, [
            random_invertible(rng, dim, mag=2) if dim
            else ExactMatrix.identity(0)
            for dim in reversed(seq.complex.dims_by_degree)])
    selector = shuffled_selector(seed) if pick else None
    assert (torsion_scalar(seq, selector=selector)
            == reference_torsion(seq, selector=selector))
