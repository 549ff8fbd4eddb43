"""Seeded random instances for the verification suites and tests.

Streams are splittable: every instance derives its own ``random.Random``
from (seed, index) through sha256, so results are reproducible per instance
regardless of execution order or parallelism.
"""

from __future__ import annotations

import hashlib
import random

from .koszul import KoszulQuadruple
from .linalg import ExactMatrix
from .scalars import QiScalar, qi_modulus_cmp_one
from .toeplitz import AnalyticSymbol


def child_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_qi(rng: random.Random, mag: int = 4, imag_prob: float = 0.5) -> QiScalar:
    real = rng.randint(-mag, mag), rng.randint(1, mag)
    imag = (0, 1)
    if rng.random() < imag_prob:
        imag = rng.randint(-mag, mag), rng.randint(1, mag)
    return QiScalar(real, imag)


def random_matrix(rng: random.Random, rows: int, cols: int,
                  mag: int = 4, imag_prob: float = 0.5) -> ExactMatrix:
    return ExactMatrix(rows, cols,
                       [random_qi(rng, mag, imag_prob)
                        for _ in range(rows * cols)])


def random_invertible(rng: random.Random, n: int, mag: int = 4) -> ExactMatrix:
    while True:
        m = random_matrix(rng, n, n, mag)
        if not m.determinant().is_zero():
            return m


def random_singularized(rng: random.Random, n: int, mag: int = 4) -> ExactMatrix:
    """A random matrix with some columns zeroed to offer nontrivial kernels."""
    m = random_matrix(rng, n, n, mag)
    kill = [j for j in range(n) if rng.random() < 0.45]
    if not kill and rng.random() < 0.5:
        kill = [rng.randrange(n)]
    if not kill:
        return m
    ent = list(m.entries)
    for i in range(n):
        for j in kill:
            ent[i * n + j] = QiScalar(0)
    return ExactMatrix(n, n, ent)


def random_quadruple(rng: random.Random, dim: int, mag: int = 4) -> KoszulQuadruple:
    """AB = CD by construction: draw A, B (often singular), D invertible,
    and set C = A B D^-1."""
    a = random_singularized(rng, dim, mag)
    b = random_singularized(rng, dim, mag)
    d = random_invertible(rng, dim, mag)
    c = a * b * d.inverse()
    return KoszulQuadruple(a, b, c, d)


def random_singular_d_quadruple(rng: random.Random, dim: int,
                                mag: int = 3) -> KoszulQuadruple:
    """AB = CD by construction with D often singular: A and C have some
    columns zeroed, and every column of (B; D) is a {-1, 0, 1} combination
    of the kernel basis of [A | -C].  So ker D, ker B n ker D and H0 are
    often nonzero, where random_quadruple's D is invertible."""
    a = random_singularized(rng, dim, mag)
    c = random_singularized(rng, dim, mag)
    kernel = a.hstack(-c).kernel_basis()
    coeffs = ExactMatrix(kernel.cols, dim,
                         [QiScalar(rng.choice((-1, 0, 0, 1)))
                          for _ in range(kernel.cols * dim)])
    bd = kernel * coeffs
    b = ExactMatrix(dim, dim, bd.entries[:dim * dim])
    d = ExactMatrix(dim, dim, bd.entries[dim * dim:])
    return KoszulQuadruple(a, b, c, d)


def random_commuting_pair(rng: random.Random, dim: int, mag: int = 3):
    """Two polynomials in a common random matrix; singular with fair odds."""
    m = random_matrix(rng, dim, dim, mag, imag_prob=0.3)
    ident = ExactMatrix.identity(dim)

    def poly():
        const = QiScalar(0) if rng.random() < 0.4 else random_qi(rng, mag, 0.3)
        lin = random_qi(rng, mag, 0.3)
        out = ident.scale(const) + m.scale(lin)
        if rng.random() < 0.5:
            out = out + (m * m).scale(random_qi(rng, 2, 0.3))
        return out

    return poly(), poly()


def random_symbol(rng: random.Random, max_roots: int = 3,
                  min_roots: int = 0) -> AnalyticSymbol:
    count = rng.randint(min_roots, max_roots)
    roots = []
    while len(roots) < count:
        z = random_qi(rng, 3, imag_prob=0.4)
        if qi_modulus_cmp_one(z) != "equal":
            roots.append(z)
    while True:
        leading = random_qi(rng, 3, imag_prob=0.25)
        if not leading.is_zero():
            break
    return AnalyticSymbol(leading, roots)


def random_exact_sequence(rng: random.Random, max_len: int = 5,
                          max_rank: int = 3, mag: int = 3,
                          exact_len: bool = False) -> "BasedExactSequence":
    """A random exact sequence: model ranks conjugated by random changes of
    basis in every degree."""
    from .complexes import BasedExactSequence, ChainComplexSpec

    n = max_len if exact_len else rng.randint(1, max_len)
    ranks = [0] + [rng.randint(0, max_rank) for _ in range(n)] + [0]
    dims = [ranks[k] + ranks[k + 1] for k in range(n + 1)]  # by degree
    transforms = [random_invertible(rng, dims[k], mag) if dims[k] else
                  ExactMatrix.identity(0) for k in range(n + 1)]
    diffs_top_down = []
    for k in range(n, 0, -1):
        model = ExactMatrix.zero(dims[k - 1], dims[k])
        ent = list(model.entries)
        for i in range(ranks[k]):
            ent[(ranks[k - 1] + i) * dims[k] + i] = QiScalar(1)
        model = ExactMatrix(dims[k - 1], dims[k], ent)
        diffs_top_down.append(transforms[k - 1] * model * transforms[k].inverse())
    return BasedExactSequence(ChainComplexSpec(list(reversed(dims)),
                                               diffs_top_down))
