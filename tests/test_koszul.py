"""Koszul complexes, long exact sequences, perturbation scalars, joint
torsion, and the folded-determinant formula."""

from collections import Counter

import pytest

from jointtorsion import (BasedExactSequence, DomainError, ExactMatrix,
                          KoszulQuadruple, QiScalar, build_eps_sequences,
                          factorization_identities, graded_determinant,
                          joint_torsion_pair, joint_torsion_quad,
                          perturbation_sigma, pseudoinv_formula,
                          torsion_scalar)
from jointtorsion import linalg
from jointtorsion.koszul import QuadHomology
from jointtorsion.randgen import (child_rng, random_commuting_pair,
                                  random_exact_sequence, random_invertible,
                                  random_quadruple, random_singular_d_quadruple,
                                  random_singularized)
from test_linalg import reference_subquotient


def mat(rows):
    return ExactMatrix.from_rows(rows)


ZERO1 = mat([[0]])
ONE1 = mat([[1]])


# -- complex builders ------------------------------------------------------

def test_quad_complex_zero_homology_dims():
    q = KoszulQuadruple(ZERO1, ZERO1, ZERO1, ZERO1)
    assert q.complex.homology_dims() == [1, 2, 1]


def test_quad_complex_identity_acyclic():
    q = KoszulQuadruple(ONE1, ONE1, ONE1, ONE1)
    assert q.complex.homology_dims() == [0, 0, 0]


def test_quad_complex_rejects_mismatch():
    with pytest.raises(DomainError, match="AB != CD"):
        KoszulQuadruple(ONE1, ONE1, ONE1, mat([[2]]))


def test_quad_matches_koszul_for_commuting_pair():
    # the Koszul complex of a commuting pair (A, B), built by hand:
    # d2 = (-B; A) and d1 = (A, B)
    rng = child_rng(17, 0)
    for _ in range(5):
        a, b = random_commuting_pair(rng, rng.randint(1, 3))
        quad = KoszulQuadruple(a, b, b, a).complex
        assert quad.differential(2) == (-b).vstack(a)
        assert quad.differential(1) == a.hstack(b)


# -- eps sequences ---------------------------------------------------------

def test_eps_dims_for_zero_quadruple():
    q = KoszulQuadruple(ZERO1, ZERO1, ZERO1, ZERO1)
    eps_ad, eps_bc = build_eps_sequences(q)
    assert eps_ad.complex.dims_by_degree == [1, 1, 1, 2, 1, 1, 1][::-1]
    assert eps_bc.complex.dims_by_degree == [1, 1, 1, 2, 1, 1, 1][::-1]


def test_eps_all_zero_for_invertible_quadruple():
    q = KoszulQuadruple(ONE1, ONE1, ONE1, ONE1)
    eps_ad, eps_bc = build_eps_sequences(q)
    assert all(d == 0 for d in eps_ad.complex.dims_by_degree)
    assert all(d == 0 for d in eps_bc.complex.dims_by_degree)


def test_eps_recovers_commuting_pair_sequences():
    a = mat([[0, 0], [0, 2]])
    b = mat([[3, 0], [0, 0]])
    q = KoszulQuadruple(a, b, b, a)
    eps_ad, eps_bc = build_eps_sequences(q)
    # spaces: H2, ker B, ker B, H1, coker B, coker B, H0 (and with A swapped in)
    assert eps_ad.complex.dims_by_degree[::-1] == [0, 1, 1, 0, 1, 1, 0]
    assert eps_bc.complex.dims_by_degree[::-1] == [0, 1, 1, 0, 1, 1, 0]
    # the middle isomorphisms are multiplication by the eigenvalues 2 and 3
    assert eps_ad.complex.differential(5) == mat([[2]])
    assert eps_ad.complex.differential(2) == mat([[2]])
    assert eps_bc.complex.differential(5) == mat([[3]])
    assert eps_bc.complex.differential(2) == mat([[3]])


# -- perturbation scalars ----------------------------------------------------

def test_sigma_equal_operators_is_one():
    rng = child_rng(17, 1)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = random_singularized(rng, n)
        assert perturbation_sigma(a, a) == QiScalar(1)


def test_sigma_invertible_scalars():
    assert perturbation_sigma(mat([[2]]), mat([[3]])) == QiScalar((3, 2))


def test_sigma_zero_operators():
    assert perturbation_sigma(ZERO1, ZERO1) == QiScalar(1)


def test_sigma_shape_mismatch():
    with pytest.raises(DomainError, match="shape mismatch"):
        perturbation_sigma(ZERO1, ExactMatrix.identity(2))


def test_sigma_direct_sum_multiplicative():
    rng = child_rng(17, 2)
    for _ in range(10):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        a1, d1 = random_singularized(rng, n1), random_singularized(rng, n1)
        a2, d2 = random_singularized(rng, n2), random_singularized(rng, n2)
        top = ExactMatrix.zero(n1, n2)
        bottom = ExactMatrix.zero(n2, n1)
        a = a1.hstack(top).vstack(bottom.hstack(a2))
        d = d1.hstack(top).vstack(bottom.hstack(d2))
        assert perturbation_sigma(a, d) == (perturbation_sigma(a1, d1)
                                            * perturbation_sigma(a2, d2))


# -- joint torsion -----------------------------------------------------------

def test_joint_torsion_zero_quadruple():
    report = joint_torsion_quad(KoszulQuadruple(ZERO1, ZERO1, ZERO1, ZERO1))
    assert report.value == QiScalar(1)
    assert report.lambda_exp == 4


def test_joint_torsion_random_quadruples_trivial():
    rng = child_rng(17, 3)
    for trial in range(40):
        q = random_quadruple(rng, rng.randint(1, 4))
        report = joint_torsion_quad(q)
        assert report.value == QiScalar(1), f"trial {trial}"


def test_joint_torsion_direct_sum_multiplicative():
    rng = child_rng(17, 4)
    for _ in range(8):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        q1 = random_quadruple(rng, n1)
        q2 = random_quadruple(rng, n2)
        top = ExactMatrix.zero(n1, n2)
        bottom = ExactMatrix.zero(n2, n1)

        def dsum(x, y):
            return x.hstack(top).vstack(bottom.hstack(y))

        q = KoszulQuadruple(dsum(q1.a, q2.a), dsum(q1.b, q2.b),
                            dsum(q1.c, q2.c), dsum(q1.d, q2.d))
        assert joint_torsion_quad(q).value == (joint_torsion_quad(q1).value
                                               * joint_torsion_quad(q2).value)


def test_joint_torsion_basis_independent():
    rng = child_rng(17, 5)
    for _ in range(8):
        q = random_quadruple(rng, rng.randint(1, 3))
        base = joint_torsion_quad(q)
        rebasing = {}
        for label, dim in base.homology_dims.items():
            if dim:
                rebasing[label] = random_invertible(rng, dim, mag=2)
        rebased = joint_torsion_quad(q, rebasing=rebasing)
        assert rebased.value == base.value


def test_joint_torsion_pair_with_identity():
    rng = child_rng(17, 6)
    for _ in range(6):
        n = rng.randint(1, 4)
        a = random_singularized(rng, n)
        one = ExactMatrix.identity(n)
        assert joint_torsion_pair(a, one).value == QiScalar(1)
        assert joint_torsion_pair(one, a).value == QiScalar(1)


def test_joint_torsion_pair_examples():
    a = mat([[0, 0], [0, 2]])
    b = mat([[3, 0], [0, 0]])
    assert joint_torsion_pair(a, b).value == QiScalar(1)
    assert joint_torsion_pair(ZERO1, ZERO1).value == QiScalar(1)


def test_joint_torsion_pair_random_commuting():
    rng = child_rng(17, 7)
    for _ in range(15):
        a, b = random_commuting_pair(rng, rng.randint(1, 4))
        assert joint_torsion_pair(a, b).value == QiScalar(1)


def test_joint_torsion_pair_skew_symmetry():
    rng = child_rng(17, 8)
    for _ in range(10):
        a, b = random_commuting_pair(rng, rng.randint(1, 3))
        product = (joint_torsion_pair(a, b).value
                   * joint_torsion_pair(b, a).value)
        assert product == QiScalar(1)


def test_joint_torsion_pair_rejects_noncommuting():
    with pytest.raises(DomainError, match="commute"):
        joint_torsion_pair(mat([[0, 1], [0, 0]]), mat([[0, 0], [1, 0]]))


def test_pair_commutation_is_the_quadruple_check(monkeypatch):
    # AB = BA is the AB = CD check of the quadruple (A, B, B, A), one
    # product of its quad complex; no commutator is formed beside it
    products = []
    multiply = ExactMatrix.__mul__

    def counted(x, y):
        products.append(1)
        return multiply(x, y)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted)
    with pytest.raises(DomainError, match="^operators do not commute$"):
        joint_torsion_pair(mat([[0, 1], [0, 0]]), mat([[0, 0], [1, 0]]))
    assert len(products) == 1
    a = mat([[1, 2], [0, 3]])
    assert joint_torsion_pair(a, a.scale(2)).value == QiScalar(1)


# -- folded determinants ------------------------------------------------------

def test_graded_determinant_equals_torsion():
    rng = child_rng(17, 9)
    for _ in range(30):
        seq = random_exact_sequence(rng, max_len=5, max_rank=3)
        assert graded_determinant(seq) == torsion_scalar(seq)


def test_graded_determinant_pseudoinverse_choice_irrelevant():
    # conjugating before folding exercises a different algebraic pseudoinverse
    rng = child_rng(17, 10)
    for _ in range(10):
        seq = random_exact_sequence(rng, max_len=4, max_rank=2)
        n = seq.length
        gs = [random_invertible(rng, seq.complex.dim(k), mag=2)
              if seq.complex.dim(k) else ExactMatrix.identity(0)
              for k in range(n, -1, -1)]
        rebased = BasedExactSequence(seq.complex, gs)
        assert graded_determinant(rebased) == torsion_scalar(rebased)


def test_pseudoinv_formula_two_term_isomorphisms():
    from jointtorsion import BasedExactSequence, ChainComplexSpec

    phi_a = mat([[2, 1], [1, 1]])
    phi_b = mat([[3]])
    eps_a = BasedExactSequence(ChainComplexSpec([2, 2], [phi_a]))
    eps_b = BasedExactSequence(ChainComplexSpec([1, 1], [phi_b]))
    value = pseudoinv_formula(eps_a, eps_b, 0, 0)
    assert value == phi_b.determinant().inverse() * phi_a.determinant()


def test_pseudoinv_formula_matches_pipeline_on_pairs():
    rng = child_rng(17, 11)
    for _ in range(20):
        a, b = random_commuting_pair(rng, rng.randint(1, 4))
        q = KoszulQuadruple(a, b, b, a)
        eps_a, eps_b = build_eps_sequences(q)
        mu_a = (a.cols - a.rank()) ** 2
        mu_b = (b.cols - b.rank()) ** 2
        value = pseudoinv_formula(eps_a, eps_b, mu_a, mu_b)
        assert value == joint_torsion_pair(a, b).value


# -- factorization identities -------------------------------------------------

def test_factorization_identity_trivial_u():
    rng = child_rng(17, 13)
    q = random_quadruple(rng, 2)
    ident = ExactMatrix.identity(2)
    for which in ("sigma-conjugate", "sigma-right-shift", "sigma-det-class",
                  "quad-conjugate", "quad-slide"):
        lhs, rhs = factorization_identities(q, ident, which)
        assert lhs == rhs


def test_factorization_det_class_hand_example():
    # A = D = 0 on C^1, U = 2: sigma(A, DU) = 1, the kernel factor is 1/2,
    # det U = 2, and indeed 1 = 1 * (1/2) * 2.
    q = KoszulQuadruple(ZERO1, ZERO1, ZERO1, ZERO1)
    u = mat([[2]])
    lhs, rhs = factorization_identities(q, u, "sigma-det-class")
    assert lhs == rhs == QiScalar(1)


def test_factorization_identities_random():
    rng = child_rng(17, 14)
    for which in ("sigma-conjugate", "sigma-right-shift", "sigma-det-class",
                  "quad-conjugate", "quad-slide"):
        for _ in range(6):
            n = rng.randint(1, 3)
            q = random_quadruple(rng, n)
            u = random_invertible(rng, n, mag=2)
            lhs, rhs = factorization_identities(q, u, which)
            assert lhs == rhs, which


def test_factorization_rejects_singular_u():
    q = KoszulQuadruple(ZERO1, ZERO1, ZERO1, ZERO1)
    with pytest.raises(DomainError, match="U not invertible"):
        factorization_identities(q, ZERO1, "sigma-conjugate")


# -- quadruples with singular D; homology read from the quad complex ----------

def reference_quad_spaces(q):
    """The cycles and boundaries of all eleven spaces, built by hand from
    the blocks of the quadruple."""
    h = q.dim
    spaces = {}
    for name, x in zip("ABCD", (q.a, q.b, q.c, q.d)):
        spaces[f"ker_{name}"] = (x.kernel_basis(), ExactMatrix.zero(h, 0))
        spaces[f"coker_{name}"] = (ExactMatrix.identity(h), x.image_basis())
    spaces.update({
        "ker_B_cap_ker_D": (q.b.vstack(q.d).kernel_basis(),
                            ExactMatrix.zero(h, 0)),
        "H1": (q.a.hstack(q.c).kernel_basis(),
               (-q.b).vstack(q.d).image_basis()),
        "H0": (ExactMatrix.identity(h), q.a.hstack(q.c).image_basis()),
    })
    return spaces


def assert_matches_hand_built_spaces(q):
    spaces = QuadHomology(q).spaces
    reference = reference_quad_spaces(q)
    assert reference.keys() == spaces.keys()
    for label, (cycles, boundaries) in reference.items():
        sq = spaces[label]
        assert sq.cycle_map.kernel_basis() == cycles
        assert sq.boundary_basis == boundaries
        rep, project = reference_subquotient(cycles.rows, cycles, boundaries)
        assert sq.rep_basis == rep
        assert sq.project_map == project


SIGN_EXPONENTS = ("lambda_exp", "pairing_exp", "kappa_A", "kappa_B",
                  "kappa_C", "kappa_D")


def test_quad_homology_matches_hand_built_spaces_on_singular_d():
    # The family reaches every sign term of the joint torsion: each of the
    # eleven spaces is nonzero and each sign exponent takes both parities
    # in some instance, so value == 1 here checks every term.
    nonzero = Counter()
    parities = {name: set() for name in SIGN_EXPONENTS}
    for index in range(40):
        rng = child_rng(29, index)
        q = random_singular_d_quadruple(rng, 2 + index % 3)
        assert_matches_hand_built_spaces(q)
        report = joint_torsion_quad(q)
        assert report.value == QiScalar(1)
        for label, dim in report.homology_dims.items():
            nonzero[label] += dim > 0
        for name in parities:
            parities[name].add(getattr(report, name) % 2)
    assert len(nonzero) == 11 and all(nonzero.values()), nonzero
    assert all(seen == {0, 1} for seen in parities.values()), parities


def test_quad_homology_matches_hand_built_spaces_on_invertible_d():
    for index in range(10):
        q = random_quadruple(child_rng(29, 100 + index), 2 + index % 7, mag=3)
        assert_matches_hand_built_spaces(q)


def fresh_copy(m):
    """The same entries without the cached elimination."""
    return ExactMatrix(m.rows, m.cols, m.entries)


def count_eliminations(monkeypatch, q):
    """_fraction_free calls of one joint_torsion_quad on fresh matrices, as
    (forward passes, Jordan passes)."""
    q = KoszulQuadruple(*(fresh_copy(m) for m in (q.a, q.b, q.c, q.d)))
    calls = []
    kernel = linalg._fraction_free

    def counted(rows, slots, cols, top):
        calls.append(top < len(rows))
        return kernel(rows, slots, cols, top)

    monkeypatch.setattr(linalg, "_fraction_free", counted)
    assert joint_torsion_quad(q).value == QiScalar(1)
    return calls.count(False), calls.count(True)


def test_elimination_count_of_a_dim4_quadruple(monkeypatch):
    # One elimination per subquotient beyond the reductions of its f and g,
    # with containment decided by the product f * boundaries and descent
    # checked by products, and no elimination of a torsion's zero end maps.  The three-elimination
    # construction with hand-built H2, H1 and H0 took 144 on this
    # quadruple, span tests for descent and containment 122, a
    # containment check by a second elimination 87, and a Gauss-Jordan pass
    # for every rank and a separate determinant elimination 71 (41 Jordan).
    q = random_singular_d_quadruple(child_rng(29, 1000), 4)
    forward, jordan = count_eliminations(monkeypatch, q)
    assert forward + jordan <= 60
    assert jordan <= 16


def test_elimination_count_of_a_dim6_quadruple(monkeypatch):
    # 120 with span tests for descent and containment, 87 with a second
    # elimination for containment, 71 (41 Jordan) with a Gauss-Jordan pass
    # for every rank.
    q = random_quadruple(child_rng(1, 0), 6)
    forward, jordan = count_eliminations(monkeypatch, q)
    assert forward + jordan <= 60
    assert jordan <= 16


def test_quadruple_checks_ab_equals_cd_by_one_product(monkeypatch):
    q = random_quadruple(child_rng(29, 2000), 3)
    products = []
    multiply = ExactMatrix.__mul__

    def counted(x, y):
        products.append(1)
        return multiply(x, y)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted)
    built = KoszulQuadruple(q.a, q.b, q.c, q.d)
    assert len(products) == 1
    assert built.complex.differential(2) == (-q.b).vstack(q.d)
    assert built.complex.differential(1) == q.a.hstack(q.c)
    with pytest.raises(DomainError, match="^AB != CD$"):
        KoszulQuadruple(q.a, q.b, q.c, q.d + ExactMatrix.identity(3))
    assert len(products) == 2
