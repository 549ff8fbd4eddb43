"""Echelon decompositions, kernels, determinants, pseudoinverses, and
subquotients with induced maps."""

from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointtorsion import (DomainError, ExactMatrix, QiScalar,
                          build_subquotient, induced_map, linalg)
from jointtorsion.linalg import _cleared_rows, _fraction_free, in_span
from jointtorsion.randgen import (child_rng, random_invertible, random_matrix,
                                  random_qi, random_quadruple,
                                  random_singular_d_quadruple,
                                  random_singularized)
from jointtorsion.scalars import ONE, ZERO


def mat(rows):
    return ExactMatrix.from_rows(rows)


def kernel_of(m):
    """ker m = ker m / im (0 -> domain)."""
    return build_subquotient(m, ExactMatrix.zero(m.cols, 0))


def cokernel_of(m):
    """coker m = ker (codomain -> 0) / im m."""
    return build_subquotient(ExactMatrix.zero(0, m.rows), m)


def test_rref_rank_one():
    m = mat([[1, 2], [2, 4]])
    res = m.rref()
    assert res.rank == 1
    assert res.pivots == (0,)
    assert res.transform * m == reference_rref(m)[0]


def test_rref_identity():
    res = ExactMatrix.identity(3).rref()
    assert res.rank == 3
    assert res.pivots == (0, 1, 2)


def test_rref_shifted_pivot():
    res = mat([[0, 1], [0, 0]]).rref()
    assert res.rank == 1
    assert res.pivots == (1,)


def test_subspace_bases_rank_one():
    m = mat([[1, 2], [2, 4]])
    kernel, image = m.kernel_basis(), m.image_basis()
    assert kernel == mat([[-2], [1]])
    assert image == mat([[1], [2]])
    assert (m * kernel).is_zero()


def test_subspace_bases_identity_and_zero():
    ident = ExactMatrix.identity(2)
    kernel, image = ident.kernel_basis(), ident.image_basis()
    assert kernel.cols == 0
    assert image == ExactMatrix.identity(2)
    zero = ExactMatrix.zero(2, 2)
    kernel, image = zero.kernel_basis(), zero.image_basis()
    assert kernel == ExactMatrix.identity(2)
    assert image.cols == 0


def test_kernel_image_ranks_on_randoms():
    rng = child_rng(5, 0)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), mag=3)
        kernel, image = m.kernel_basis(), m.image_basis()
        assert (m * kernel).is_zero()
        assert kernel.cols + image.cols == m.cols
        assert image.rank() == image.cols


def test_determinant_examples():
    assert mat([[1, 2], [3, 4]]).determinant() == QiScalar(-2)
    assert mat([["i"]]).determinant() == QiScalar(0, 1)
    assert mat([[1, 2], [2, 4]]).determinant() == QiScalar(0)
    with pytest.raises(DomainError):
        ExactMatrix.zero(2, 3).determinant()


def test_determinant_multiplicative():
    rng = child_rng(5, 1)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, mag=3)
        b = random_matrix(rng, n, n, mag=3)
        assert (a * b).determinant() == a.determinant() * b.determinant()


def test_rref_transform_invertible():
    rng = child_rng(5, 2)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), mag=3)
        assert not m.rref().transform.determinant().is_zero()


def test_pseudoinverse_examples():
    assert mat([[2]]).pseudoinverse() == mat([["1/2"]])
    z = ExactMatrix.zero(2, 3)
    assert z.pseudoinverse() == ExactMatrix.zero(3, 2)
    m = mat([[1, 0], [0, 0]])
    assert m.pseudoinverse() == m


def test_pseudoinverse_identities_all_ranks():
    rng = child_rng(5, 3)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, r, c, mag=3)
        if rng.random() < 0.5:
            m = random_singularized(rng, max(r, c), mag=3).select_columns(
                range(c)) if r == max(r, c) else m
        dag = m.pseudoinverse()
        assert m * dag * m == m
        assert dag * m * dag == dag


def test_build_subquotient_cokernel_of_diag():
    sq = cokernel_of(mat([[0, 0], [0, 1]]))
    assert sq.dim == 1
    assert sq.rep_basis == mat([[1], [0]])


def test_build_subquotient_quad_h1_dimension():
    # H_1 of the quadruple complex with all-zero 1x1 operators: C^2 / 0.
    sq = build_subquotient(ExactMatrix.zero(1, 2), ExactMatrix.zero(2, 1))
    assert sq.cycle_map.kernel_basis() == ExactMatrix.identity(2)
    assert sq.dim == 2


def test_build_subquotient_zero_quotient():
    sq = build_subquotient(ExactMatrix.zero(0, 2), mat([[1, 0], [0, 1]]))
    assert sq.dim == 0


def test_build_subquotient_containment_checked():
    # ker [0 1] is spanned by e1, and im g by e2
    with pytest.raises(DomainError, match="not a subquotient"):
        build_subquotient(mat([[0, 1]]), mat([[0], [1]]))


def cokernel_of_invertible():
    return ExactMatrix.zero(0, 4), random_invertible(child_rng(5, 9), 4, mag=3)


def kernel_of_rank_deficient():
    f = mat([[1, 2, 0, "i"], [0, 1, 1, 0], [1, 3, 1, "i"], [2, 4, 0, "2i"]])
    return f, ExactMatrix.zero(4, 0)


def cokernel_of_column():
    return ExactMatrix.zero(0, 3), mat([[1], ["i"], [2]])


def h1_of_dim16_singular_d():
    quad = random_singular_d_quadruple(child_rng(1, 0), 16).complex
    return quad.differential(1), quad.differential(2)


def h1_of_dim8_invertible_d():
    quad = random_quadruple(child_rng(1, 0), 8).complex
    return quad.differential(1), quad.differential(2)


def representatives_pass(f, g):
    """The pass that builds the representatives' kernel vectors: f's rows
    at its pivot columns beside the representatives' free columns, or None
    when f has no pivots or the quotient no dimension."""
    dim = f.cols - f.rank() - g.rank()
    return (f.rows, f.rank() + dim) if f.rank() and dim else None


@pytest.mark.parametrize("case, shapes", [
    (cokernel_of_invertible, [(4, 8)]),
    (kernel_of_rank_deficient, [(2, 4), (4, 4)]),
    (h1_of_dim16_singular_d, [(16, 48)]),
    (h1_of_dim8_invertible_d, [(12, 24), (8, 8)]),
])
def test_subquotient_eliminates_boundaries_in_cycle_coordinates(
        monkeypatch, case, shapes):
    # Once f and g are reduced forward, ker f / im g is one elimination of
    # the boundaries' rows at f's free columns beside those rows of I:
    # (n - rank f) x (rank g + n).  Then one pass over f builds only the
    # representatives' kernel vectors.
    f, g = case()
    f.rref(), g.image_basis()
    reps = representatives_pass(f, g)
    assert shapes == [(f.cols - f.rank(), g.rank() + f.cols)] + (
        [reps] if reps else [])
    recorded_shapes = []
    clear = linalg._cleared_rows

    def recorded(rows, width):
        recorded_shapes.append((len(rows), width))
        return clear(rows, width)

    monkeypatch.setattr(linalg, "_cleared_rows", recorded)
    build_subquotient(f, g)
    assert recorded_shapes == shapes


@pytest.mark.parametrize("case, top_and_rows", [
    (cokernel_of_invertible, [(4, 4)]),
    (kernel_of_rank_deficient, [(0, 2), (0, 4)]),
    (cokernel_of_column, [(1, 3)]),
    (h1_of_dim16_singular_d, [(16, 16)]),
    (h1_of_dim8_invertible_d, [(8, 12), (0, 8)]),
])
def test_subquotient_back_substitutes_only_projection_rows(
        monkeypatch, case, top_and_rows):
    # Only the rows past the rank g boundary rows are read, so the pass
    # reduces above its pivots from row rank g on.  A zero-dimensional
    # quotient has no such rows, and its pass is a forward pass.  The
    # representatives' pass, when there is one, is Gauss-Jordan over f's
    # rows.
    f, g = case()
    f.rref(), g.image_basis()
    calls = []
    kernel = linalg._fraction_free

    def recorded(rows, slots, cols, top):
        calls.append((top, len(rows)))
        return kernel(rows, slots, cols, top)

    monkeypatch.setattr(linalg, "_fraction_free", recorded)
    build_subquotient(f, g)
    assert calls == top_and_rows
    assert calls[0][0] == g.rank()
    reps = representatives_pass(f, g)
    assert calls[1:] == ([(0, f.rows)] if reps else [])


def test_kernel_basis_eliminates_the_matrix_without_an_identity(monkeypatch):
    # The kernel is read off the pivot columns beside the free columns,
    # so neither pass carries the 4x4 identity block of the transform.
    rows = [[1, 2, 0, "i", 3, 0], [0, 1, 1, 0, "2i", 1]]
    m = mat(rows + [[1, 3, 1, "i", "3+2i", 1], [2, 4, 0, "2i", 6, 0]])
    shapes = []
    clear = linalg._cleared_rows

    def recorded(rows, width):
        shapes.append((len(rows), width))
        return clear(rows, width)

    monkeypatch.setattr(linalg, "_cleared_rows", recorded)
    kernel = m.kernel_basis()
    assert shapes == [(4, 6), (4, 6)]
    assert kernel.cols == 4 and (m * kernel).is_zero()


def test_subquotient_projection_section_identity():
    rng = child_rng(5, 4)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_singularized(rng, n, mag=3)
        sq = cokernel_of(m)
        assert sq.project_map * sq.rep_basis == ExactMatrix.identity(sq.dim)
        assert (sq.project_map * sq.boundary_basis).is_zero()


def test_induced_map_on_kernel():
    a = mat([[0, 0], [0, 2]])
    b = mat([[3, 0], [0, 0]])
    assert induced_map(b, kernel_of(a), kernel_of(a)) == mat([[3]])


def test_induced_map_identity():
    rng = child_rng(5, 5)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_singularized(rng, n, mag=3)
        sq = cokernel_of(m)
        ident = ExactMatrix.identity(n)
        assert induced_map(ident, sq, sq) == ExactMatrix.identity(sq.dim)


def test_induced_map_on_cokernel():
    a = mat([[0, 0], [0, 2]])
    b = mat([[3, 0], [0, 0]])
    sq = cokernel_of(b)
    assert induced_map(a, sq, sq) == mat([[2]])


def test_induced_map_rejects_non_descending():
    a = mat([[0, 1], [0, 0]])  # does not map ker(proj to e1) into itself
    src = kernel_of(mat([[1, 0]]))
    dst = kernel_of(mat([[1, 0]]))
    with pytest.raises(DomainError, match="map does not descend"):
        induced_map(a, src, dst)


def test_induced_map_respects_composition():
    rng = child_rng(5, 6)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = random_singularized(rng, n, mag=3)
        sq = cokernel_of(m)
        # any operators preserving im(m): multiples of identity do
        u = ExactMatrix.identity(n).scale(QiScalar(2))
        v = ExactMatrix.identity(n).scale(QiScalar(1, 0, 3))
        lhs = induced_map(u * v, sq, sq)
        rhs = induced_map(u, sq, sq) * induced_map(v, sq, sq)
        assert lhs == rhs


# -- differential test against per-entry elimination over Q(i) ----------------

def reference_rref(m):
    """Gauss-Jordan with QiScalar arithmetic on every entry, the same
    leftmost first-nonzero pivot scan, and the transform carried alongside.
    Returns (rref, pivots, rank, transform)."""
    n, cols = m.rows, m.cols
    work = [list(m.row(i)) for i in range(n)]
    trans = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    pivots = []
    for col in range(cols):
        prow = len(pivots)
        if prow >= n:
            break
        src = next((r for r in range(prow, n) if not work[r][col].is_zero()),
                   None)
        if src is None:
            continue
        work[prow], work[src] = work[src], work[prow]
        trans[prow], trans[src] = trans[src], trans[prow]
        inv = work[prow][col].inverse()
        work[prow] = [inv * v for v in work[prow]]
        trans[prow] = [inv * v for v in trans[prow]]
        for r in range(n):
            f = work[r][col]
            if r == prow or f.is_zero():
                continue
            work[r] = [a - f * b for a, b in zip(work[r], work[prow])]
            trans[r] = [a - f * b for a, b in zip(trans[r], trans[prow])]
        pivots.append(col)
    return (ExactMatrix(n, cols, [v for r in work for v in r]), tuple(pivots),
            len(pivots), ExactMatrix(n, n, [v for r in trans for v in r]))


def reference_determinant(m):
    """Gaussian elimination with QiScalar arithmetic on every entry."""
    n = m.rows
    work = [list(m.row(i)) for i in range(n)]
    det = ONE
    for col in range(n):
        src = next((r for r in range(col, n) if not work[r][col].is_zero()),
                   None)
        if src is None:
            return ZERO
        if src != col:
            work[col], work[src] = work[src], work[col]
            det = -det
        piv = work[col][col]
        det = det * piv
        for r in range(col + 1, n):
            f = work[r][col] * piv.inverse()
            work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def assert_matches_reference(m):
    res = m.rref()
    rref, pivots, rank, transform = reference_rref(m)
    assert res.pivots == pivots
    assert res.rank == rank
    assert res.transform * m == rref
    assert res.transform == transform  # every row, also those past the rank
    if m.is_square():
        det = m.determinant()
        assert det == reference_determinant(m)
        if rank < m.rows:
            assert det == ZERO


def rank_deficient(rng, m):
    """m with some rows or columns zeroed or copied from another."""
    ent = list(m.entries)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5 and m.rows > 1:
            i, k = rng.sample(range(m.rows), 2)
            for j in range(m.cols):
                ent[i * m.cols + j] = (ZERO if rng.random() < 0.5
                                       else ent[k * m.cols + j])
        elif m.cols > 1:
            j, k = rng.sample(range(m.cols), 2)
            zero = rng.random() < 0.5
            for i in range(m.rows):
                ent[i * m.cols + j] = ZERO if zero else ent[i * m.cols + k]
    return ExactMatrix(m.rows, m.cols, ent)


@pytest.mark.parametrize("imag_prob", [0.0, 0.5, 1.0])
def test_kernel_matches_reference_on_all_shapes(imag_prob):
    rng = child_rng(17, int(imag_prob * 10))
    for rows in range(8):
        for cols in range(10):
            m = random_matrix(rng, rows, cols, mag=4, imag_prob=imag_prob)
            assert_matches_reference(m)
            assert_matches_reference(rank_deficient(rng, m))


def test_kernel_matches_reference_on_square_singular():
    rng = child_rng(17, 20)
    for n in range(1, 8):
        for _ in range(3):
            m = rank_deficient(rng, random_matrix(rng, n, n, mag=3))
            assert_matches_reference(m)


def test_kernel_matches_reference_with_many_prime_denominators():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    rng = child_rng(17, 30)
    ent = []
    for k, p in enumerate(primes):
        q = primes[-1 - k]
        # x/p + (y/q) i = (x q + y p i) / (p q)
        ent.append(QiScalar(rng.randint(-60, 60) * q,
                            rng.randint(-60, 60) * p, p * q))
    m = ExactMatrix(4, 4, ent)
    assert_matches_reference(m)
    assert_matches_reference(m.hstack(m.scale(QiScalar(1, 1))))
    assert_matches_reference(m.vstack(m.scale(QiScalar(1, 0, 7))))


def test_kernel_matches_reference_with_large_entries():
    rng = child_rng(17, 40)
    big = 2 ** 90
    ent = [random_qi(rng) * QiScalar(rng.randint(-big, big), 0,
                                     rng.randint(1, big))
           for _ in range(5 * 6)]
    assert_matches_reference(ExactMatrix(5, 6, ent))
    assert_matches_reference(ExactMatrix(5, 5, ent[:25]))


# -- rref invariants on generated matrices -------------------------------------

# (a + b i) / d with |a|, |b| <= 12 and 0 < |d| <= 16, the reach of
# p/q + (r/s) i with |p|, |r| <= 3 and 1 <= q, s <= 4
SCALARS = st.builds(QiScalar, st.integers(-12, 12),
                    st.one_of(st.just(0), st.integers(-12, 12)),
                    st.integers(-16, 16).filter(bool))


@st.composite
def matrices_with_repeats(draw, square=False):
    """Matrices up to 5x6 (square ones up to 5x5) with fractional and
    complex entries, some rows zeroed and some copied from an earlier row."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 6))
    grid = [draw(st.lists(SCALARS, min_size=cols, max_size=cols))
            for _ in range(rows)]
    for i in range(rows):
        how = draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        if how == "zero":
            grid[i] = [ZERO] * cols
        elif how == "copy" and i:
            grid[i] = list(grid[draw(st.integers(0, i - 1))])
    return ExactMatrix(rows, cols, [v for row in grid for v in row])


def leading_columns(r):
    """The column of the first nonzero entry of each nonzero row of r."""
    lead = (next((j for j in range(r.cols) if not r[i, j].is_zero()), None)
            for i in range(r.rows))
    return tuple(j for j in lead if j is not None)


@settings(max_examples=200, deadline=None)
@given(matrices_with_repeats())
def test_rref_invariants(m):
    res = m.rref()
    reduced = res.transform * m
    assert reduced == reference_rref(m)[0]
    assert reference_determinant(res.transform) != ZERO
    assert res.pivots == leading_columns(reduced)
    assert list(res.pivots) == sorted(set(res.pivots))
    assert res.rank == len(res.pivots)
    for i, p in enumerate(res.pivots):
        assert [reduced[k, p] for k in range(m.rows)] == [
            ONE if k == i else ZERO for k in range(m.rows)]


def standalone_determinant(m):
    """The determinant by its own forward Bareiss elimination, apart from
    rref: the last pivot, signed by the swaps, over the clearing factors."""
    rows, slots = _cleared_rows(matrix_rows(m), m.cols)
    pivots, (pr, pi), swaps = _fraction_free(rows, slots, m.cols, m.rows)
    if len(pivots) < m.rows:
        return ZERO
    if swaps % 2:
        pr, pi = -pr, -pi
    den = prod(d for _, _, d in rows)
    return QiScalar(pr, pi, den)


def matrix_rows(m):
    return [m.row(i) for i in range(m.rows)]


def jordan_pivots(m):
    augmented = m.hstack(ExactMatrix.identity(m.rows))
    rows, slots = _cleared_rows(matrix_rows(augmented), augmented.cols)
    pivots, _, _ = _fraction_free(rows, slots, m.cols, 0)
    return tuple(pivots)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices_with_repeats(), matrices_with_repeats(square=True)))
@example(ExactMatrix.zero(0, 0))
@example(ExactMatrix.zero(0, 4))
@example(ExactMatrix.zero(3, 0))
def test_forward_pass_gives_jordan_pivots_and_bareiss_determinant(m):
    res = m.rref()
    assert res.pivots == jordan_pivots(m)
    if m.is_square():
        assert res.determinant == standalone_determinant(m)
        assert m.determinant() == res.determinant
    else:
        assert res.determinant is None
        with pytest.raises(DomainError, match="non-square"):
            m.determinant()


def test_slot_widths_of_three_passes(monkeypatch):
    # (bits per slot, slots per row) of each packed pass: a fixed matrix's
    # forward pass, the [B | P] pass of coker C and the transform pass of
    # C, for the dim-8 quadruple's C.  A change to the slot bound, or to the
    # rows a pass packs, shows here as a changed width.
    m = mat([[1, 2, 0, "i", 3, 0], [0, 1, 1, 0, "2i", 1],
             [1, 3, 1, "i", "3+2i", 1], [2, 4, 0, "2i", 6, 0]])
    c = random_quadruple(child_rng(1, 0), 8).c
    c.rref()
    widths = []
    init = linalg._Slots.__init__

    def recorded(self, bits, width):
        widths.append((bits, width))
        init(self, bits, width)

    monkeypatch.setattr(linalg._Slots, "__init__", recorded)
    m.rref()
    cokernel_of(c)
    c.rref().transform
    assert widths == [(12, 6), (688, 12), (690, 16)]


# -- differential test of the one-elimination subquotient ---------------------

def reference_subquotient(ambient_dim, cycles, boundaries):
    """The three-elimination construction: extend the boundary pivot basis
    by cycle columns, extend that by standard vectors to an ambient basis,
    invert the basis.  Returns (rep_basis, project_map)."""
    if not in_span(cycles, boundaries):
        raise DomainError("not a subquotient")
    bnd = boundaries.image_basis()
    candidates = bnd.hstack(cycles)
    pivots = candidates.rref().pivots
    rep = candidates.select_columns([p for p in pivots if p >= bnd.cols])
    full = bnd.hstack(rep).hstack(ExactMatrix.identity(ambient_dim))
    fpivots = full.rref().pivots
    inv = full.select_columns(fpivots).inverse()
    rows = [j for j, p in enumerate(fpivots)
            if bnd.cols <= p < bnd.cols + rep.cols]
    project = ExactMatrix(len(rows), ambient_dim,
                          [inv[i, j] for i in rows for j in range(ambient_dim)])
    return rep, project


def built(f, g):
    sq = build_subquotient(f, g)
    return sq.rep_basis, sq.project_map


def referenced(f, g):
    return reference_subquotient(f.cols, f.kernel_basis(), g.image_basis())


def subquotient_outcome(f, g, build):
    """(rep_basis, project_map) of ker f / im g, or the error text."""
    try:
        return build(f, g)
    except DomainError as exc:
        return str(exc)


def assert_subquotient_matches_reference(f, g):
    got = subquotient_outcome(f, g, built)
    assert got == subquotient_outcome(f, g, referenced)
    if isinstance(got, str):
        assert got == "not a subquotient"
        assert not (f * g).is_zero()
        return
    n = f.cols
    sq = build_subquotient(f, g)
    assert sq.cycle_map == f
    assert sq.boundary_basis == g.image_basis()
    assert sq.project_map * sq.rep_basis == ExactMatrix.identity(sq.dim)
    assert (sq.cycle_map * sq.rep_basis).is_zero()
    assert (sq.project_map * g).is_zero()
    # ker f is the cycle space and ker (f; project_map) the boundary space
    assert sq.cycle_map.rank() == n - f.kernel_basis().cols
    stacked = sq.cycle_map.vstack(sq.project_map)
    assert stacked.rank() == n - sq.boundary_basis.cols


def random_cycle_map(rng, n):
    """A map out of C^n, often rank-deficient, so that its kernel, the
    cycle space, is often nonzero and often not spanned by standard
    vectors."""
    f = random_matrix(rng, rng.randint(0, n), n, mag=3, imag_prob=0.4)
    if rng.random() < 0.5:
        f = rank_deficient(rng, f)
    return f


def random_cycles(rng, n, count):
    """count columns in C^n, some of them zero, repeated or combinations of
    earlier ones, so the cycle columns are often dependent."""
    cols = []
    for _ in range(count):
        roll = rng.random()
        if cols and roll < 0.2:
            cols.append(rng.choice(cols))
        elif len(cols) > 1 and roll < 0.4:
            u, v = rng.sample(cols, 2)
            s, t = random_qi(rng, 2), random_qi(rng, 2)
            cols.append(tuple(s * a + t * b for a, b in zip(u, v)))
        elif roll < 0.5:
            cols.append((ZERO,) * n)
        else:
            cols.append(tuple(random_qi(rng, 3) for _ in range(n)))
    return ExactMatrix(n, count, [c[i] for i in range(n) for c in cols])


def random_boundaries(rng, f, count):
    """count combinations of f's kernel basis, dependent ones included."""
    kernel = f.kernel_basis()
    mix = random_matrix(rng, kernel.cols, count, mag=2, imag_prob=0.3)
    if rng.random() < 0.3:
        mix = rank_deficient(rng, mix)
    return kernel * mix


def test_subquotient_matches_reference_on_seeded_pairs():
    rng = child_rng(23, 0)
    raised = 0
    for n in range(7):
        for _ in range(12):
            f = random_cycle_map(rng, n)
            g = random_boundaries(rng, f, rng.randint(0, n - f.rank()))
            if rng.random() < 0.25:
                # a boundary outside the cycles, unless f kills it anyway
                g = g.hstack(random_matrix(rng, n, 1, mag=3))
                raised += not (f * g).is_zero()
            assert_subquotient_matches_reference(f, g)
    assert raised


def test_subquotient_matches_reference_on_edge_blocks():
    rng = child_rng(23, 1)
    for n in range(5):
        f = random_cycle_map(rng, n)
        kernel = f.kernel_basis()
        assert_subquotient_matches_reference(f, kernel)
        assert_subquotient_matches_reference(f, ExactMatrix.zero(n, 0))
        assert_subquotient_matches_reference(ExactMatrix.identity(n),
                                             ExactMatrix.zero(n, 0))
        assert_subquotient_matches_reference(ExactMatrix.zero(0, n),
                                             random_cycles(rng, n, n + 1))
        assert_subquotient_matches_reference(ExactMatrix.zero(2, n),
                                             ExactMatrix.zero(n, 3))
        assert build_subquotient(f, kernel).dim == 0


def left_annihilator(vectors):
    """A matrix whose kernel is exactly the span of the columns of vectors:
    the rows of their rref transform past the rank."""
    res = vectors.rref()
    t = res.transform
    return ExactMatrix(t.rows - res.rank, t.cols, t.entries[res.rank * t.cols:])


def test_subquotient_rejects_non_contained_pair_like_reference():
    rng = child_rng(23, 2)
    for n in range(2, 6):
        basis = random_invertible(rng, n, mag=3)
        f = left_annihilator(basis.select_columns(range(n - 1)))
        g = basis.select_columns([n - 1])
        for build in (built, referenced):
            assert subquotient_outcome(f, g, build) == "not a subquotient"


# -- descent by products against descent by span tests -------------------------

def reference_induced_map(m, src, dst):
    """The induced map with its descent checked by two span tests, one
    elimination each, in place of products with dst's stored maps."""
    if m.cols != src.ambient_dim or m.rows != dst.ambient_dim:
        raise DomainError("ambient shape mismatch")
    if not in_span(dst.cycle_map.kernel_basis(),
                   m * src.cycle_map.kernel_basis()):
        raise DomainError("map does not descend")
    if not in_span(dst.boundary_basis, m * src.boundary_basis):
        raise DomainError("map does not descend")
    return dst.project_map * (m * src.rep_basis)


def sometimes_rebased(rng, sq):
    """sq, or in three cases of ten sq rebased by a random invertible g."""
    if sq.dim and rng.random() < 0.3:
        return sq.with_rep_transform(random_invertible(rng, sq.dim, mag=2))
    return sq


def random_subquotient(rng, n):
    f = random_cycle_map(rng, n)
    return sometimes_rebased(rng, build_subquotient(
        f, random_boundaries(rng, f, rng.randint(0, 1))))


def descent_case(seed):
    """A seeded map m and subquotients src, dst.  Half the targets are built
    around m's image of src, so that m descends unless a rank-one change
    of m (made half the time) breaks it."""
    rng = child_rng(31, seed)
    n_src, n_dst = rng.randint(0, 5), rng.randint(0, 5)
    src = random_subquotient(rng, n_src)
    m = random_matrix(rng, n_dst, n_src, mag=2, imag_prob=0.3)
    if rng.random() < 0.5:
        cycles = (m * src.cycle_map.kernel_basis()).hstack(
            random_cycles(rng, n_dst, rng.randint(0, 2)))
        boundaries = m * src.boundary_basis
        if rng.random() < 0.3:
            boundaries = boundaries.hstack(
                cycles * random_matrix(rng, cycles.cols, 1, mag=2))
        dst = sometimes_rebased(rng, build_subquotient(
            left_annihilator(cycles), boundaries))
        if rng.random() < 0.5:
            m = m + random_matrix(rng, n_dst, 1) * random_matrix(rng, 1, n_src)
    elif rng.random() < 0.5 and n_dst == n_src:
        # an endomorphism of one subquotient: a scalar multiple of the
        # identity descends
        dst = src
        m = ExactMatrix.identity(n_src).scale(random_qi(rng, 2))
        if rng.random() < 0.5:
            m = m + random_matrix(rng, n_dst, 1) * random_matrix(rng, 1, n_src)
    else:
        dst = random_subquotient(rng, n_dst)
    return m, src, dst


def descent_outcome(m, src, dst, induce):
    try:
        return induce(m, src, dst)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_product_descent_agrees_with_span_descent(seed):
    m, src, dst = descent_case(seed)
    assert (descent_outcome(m, src, dst, induced_map)
            == descent_outcome(m, src, dst, reference_induced_map))


def test_descent_cases_cover_both_outcomes():
    outcomes = {"descends": 0, "raises": 0, "nonzero map": 0}
    for seed in range(300):
        m, src, dst = descent_case(seed)
        got = descent_outcome(m, src, dst, induced_map)
        assert got == descent_outcome(m, src, dst, reference_induced_map)
        if isinstance(got, str):
            assert got == "map does not descend"
            outcomes["raises"] += 1
        else:
            outcomes["descends"] += 1
            outcomes["nonzero map"] += not got.is_zero()
    assert min(outcomes.values()) >= 30, outcomes


def reference_pseudoinverse(m):
    """R_right * C_left as a matrix product (the selection not scattered)."""
    res = m.rref()
    r = res.rank
    right = ExactMatrix(m.cols, r, [ONE if res.pivots[j] == i else ZERO
                                    for i in range(m.cols) for j in range(r)])
    left = ExactMatrix(r, m.rows, res.transform.entries[:r * m.rows])
    return right * left


def test_pseudoinverse_scatter_matches_product():
    rng = child_rng(31, -1)
    for rows in range(5):
        for cols in range(5):
            m = random_matrix(rng, rows, cols, mag=3)
            for case in (m, rank_deficient(rng, m), ExactMatrix.zero(rows, cols)):
                assert case.pseudoinverse() == reference_pseudoinverse(case)


# -- empty shapes: no elimination and no scalar arithmetic -------------------

EMPTY_SHAPES = [(0, 3), (3, 0), (0, 0)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the elimination kernels and scalar operations called."""
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(linalg, "_cleared_rows")
    counting(linalg, "_fraction_free")
    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        counting(QiScalar, op)
    return calls


@pytest.mark.parametrize("rows, cols", EMPTY_SHAPES)
def test_empty_shapes_make_no_elimination(kernel_calls, rows, cols):
    m = ExactMatrix.zero(rows, cols)
    assert m.rank() == 0
    assert m.kernel_basis() == ExactMatrix.identity(cols)
    assert m.image_basis() == ExactMatrix.zero(rows, 0)
    if rows == cols:
        assert m.determinant() == ONE
    else:
        assert m.rref().determinant is None
        with pytest.raises(DomainError, match="non-square"):
            m.determinant()
    for k in (0, 2):
        assert m * ExactMatrix.zero(cols, k) == ExactMatrix.zero(rows, k)
        assert ExactMatrix.zero(k, rows) * m == ExactMatrix.zero(k, cols)
    assert kernel_calls == []


@pytest.mark.parametrize("rows, cols", EMPTY_SHAPES)
def test_empty_shapes_read_as_before(kernel_calls, rows, cols):
    # the reduced form is the matrix itself and the transform the identity,
    # as the elimination of [m | I] and the per-entry reference give them
    m = ExactMatrix.zero(rows, cols)
    res = m.rref()
    assert res.pivots == ()
    assert res.transform == ExactMatrix.identity(rows)
    assert res.transform * m == m
    assert m.pseudoinverse() == ExactMatrix.zero(cols, rows)
    assert kernel_calls == []
    assert_matches_reference(m)
