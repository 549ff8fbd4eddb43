"""Seeded random instances for the verification suites and tests.

Streams are splittable: every instance derives its own ``random.Random``
from (seed, index) through SHA-256, so results are reproducible per instance
regardless of execution order or parallelism.  The hash is ``complexes``'s
``sha256``, the interpreter's built-in one, so drawing instances does not
load OpenSSL through hashlib; its digests are hashlib's, byte for byte.
"""

from __future__ import annotations

import random

from .complexes import BasedExactSequence, sha256
from .koszul import KoszulQuadruple
from .linalg import ExactMatrix
from .scalars import QiScalar, _reduced, qi_modulus_cmp_one
from .toeplitz import AnalyticSymbol


def child_rng(seed: int, index: int) -> random.Random:
    digest = sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_qi(rng: random.Random, mag: int = 4, imag_prob: float = 0.5) -> QiScalar:
    """p/q + (r/s) i with p, r in [-mag, mag] and q, s in [1, mag]; the
    imaginary part is drawn with probability imag_prob, else it is 0.

    Each integer is drawn the way ``rng.randint`` draws it, by the same
    rejection loop: getrandbits of the width's bit length until the value
    falls below the width.
    """
    if mag < 1:
        raise ValueError(f"empty range for mag = {mag}")
    bits = rng.getrandbits
    width = 2 * mag + 1
    k, k_den = width.bit_length(), mag.bit_length()
    p = bits(k)
    while p >= width:
        p = bits(k)
    q = bits(k_den)
    while q >= mag:
        q = bits(k_den)
    if rng.random() >= imag_prob:
        return _reduced(p - mag, 0, q + 1)
    r = bits(k)
    while r >= width:
        r = bits(k)
    s = bits(k_den)
    while s >= mag:
        s = bits(k_den)
    p, q, r, s = p - mag, q + 1, r - mag, s + 1
    # p/q + (r/s) i = (p s + r q i) / (q s)
    return _reduced(p * s, r * q, q * s)


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
    # the draw comes first at every n, and at n = 0 there is no column
    if not kill and rng.random() < 0.5 and n:
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


def random_nilpotent_pair(rng: random.Random, dim: int, mag: int = 3):
    """(m, c m^2) for m = P N P^-1, P invertible and N upper triangular with
    each diagonal entry zero with odds one half, so that m often has a
    nilpotent part, and m and m^2 kernels of different dimensions."""
    p = random_invertible(rng, dim, mag)
    entries = []
    for i in range(dim):
        for j in range(dim):
            if j < i or (j == i and rng.random() < 0.5):
                entries.append(QiScalar(0))
            else:
                entries.append(random_qi(rng, mag, 0.3))
    m = p * ExactMatrix(dim, dim, entries) * p.inverse()
    c = random_qi(rng, mag, 0.3)
    while c.is_zero():
        c = random_qi(rng, mag, 0.3)
    return m, (m * m).scale(c)


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
                          exact_len: bool = False) -> BasedExactSequence:
    """A random exact sequence: model ranks conjugated by random changes of
    basis in every degree."""
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
    return BasedExactSequence(list(reversed(dims)), diffs_top_down)
