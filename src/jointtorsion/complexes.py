"""Chain complexes over Q(i), homology, and torsion of based exact sequences.

Conventions, fixed once and used everywhere:

* A complex ``0 -> V_n -> ... -> V_0 -> 0`` is constructed from top-degree
  data (dims and differentials listed from degree n down), stored by degree.
  A based exact sequence is such a complex; building one checks exactness.
  ``d_k`` maps ``V_k`` to ``V_{k-1}``; the boundary maps ``d_0`` and
  ``d_{n+1}`` are zero-shaped matrices so kernels and images at the ends
  come out of the same code path.

* The torsion scalar of a based exact sequence alternates stars starting at
  the top: position k carries exponent -1 when ``k = n (mod 2)`` and +1
  otherwise.  For each degree the generator set T_k is the standard basis
  vectors at the pivot columns S_k of d_k, and

      c_k = det [ d_{k+1} T_{k+1} | T_k ]   (in the basis g_k of V_k)

  including k = n, whose factor is 1 for standard bases.  The product of
  ``c_k`` to the signed exponents is the torsion; it does not depend on the
  generator choices (any valid T_k gives the same value) and transforms by
  ``det(g_k)^(-s_k)`` under a change of basis ``g_k``.

  Expanding along the standard columns T_k leaves one nonzero term: with
  s = |S_k| and r = rank d_{k+1},

      c_k = (-1)^(sum S_k + s r + s (s - 1) / 2)
            * det d_{k+1}[rows not in S_k, T_{k+1}] * det(g_k)^(-1),

  a signed r x r minor of d_{k+1}.  The top factor has r = 0, and when S_k
  is empty and T_{k+1} is every column the minor is d_{k+1} itself, whose
  determinant its rank computation already gave.
"""

from __future__ import annotations

# SHA-256 from the interpreter's own module, as ``random`` takes its SHA-512:
# hashlib would load OpenSSL's _hashlib, about 3.5 MB, for the same digest.
# Resolved once here, since a failed import is retried on every call.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .errors import DomainError
from .linalg import ExactMatrix, Subquotient, build_subquotient
from .scalars import ONE, QiScalar


class ChainComplexSpec:
    """A finite chain complex of coordinate spaces with exact differentials."""

    def __init__(self, dims_top_down, differentials_top_down):
        dims = list(dims_top_down)
        for d in dims:
            if not isinstance(d, int):
                raise TypeError(f"a dimension must be an int, not {d!r}")
            if d < 0:
                raise DomainError(f"negative dimension {d}")
        diffs = list(differentials_top_down)
        if len(diffs) != max(len(dims) - 1, 0):
            raise DomainError("need exactly one differential per adjacent pair")
        self.length = len(dims) - 1
        self._dims = list(reversed(dims))  # by degree
        self._diffs = list(reversed(diffs))  # d_1 .. d_n by degree
        for k in range(1, self.length + 1):
            d = self._diffs[k - 1]
            if d.rows != self._dims[k - 1] or d.cols != self._dims[k]:
                raise DomainError(f"differential d_{k} has shape "
                                  f"{d.rows}x{d.cols}, expected "
                                  f"{self._dims[k - 1]}x{self._dims[k]}")
        for k in range(1, self.length):
            if not self._diffs[k - 1].kills(self._diffs[k]):
                raise DomainError("differentials do not compose to zero")

    def _check_degree(self, k: int, top: int) -> None:
        if not 0 <= k <= top:
            raise DomainError(f"degree {k} out of range")

    def dim(self, k: int) -> int:
        self._check_degree(k, self.length)
        return self._dims[k]

    def differential(self, k: int) -> ExactMatrix:
        """d_k for 0 <= k <= n+1, with zero-shaped maps at the ends."""
        self._check_degree(k, self.length + 1)
        if k == 0:
            return ExactMatrix.zero(0, self._dims[0])
        if k == self.length + 1:
            return ExactMatrix.zero(self._dims[self.length], 0)
        return self._diffs[k - 1]

    def rank(self, k: int) -> int:
        if k <= 0 or k > self.length:
            return 0
        return self._diffs[k - 1].rank()

    def homology(self, k: int) -> Subquotient:
        """H_k as a based subquotient: ker d_k over im d_{k+1}."""
        self._check_degree(k, self.length)
        return build_subquotient(self.differential(k),
                                 self.differential(k + 1))


class BasedExactSequence(ChainComplexSpec):
    """An exact complex with an ordered basis per space, given top down."""

    def __init__(self, dims_top_down, differentials_top_down, bases=None):
        super().__init__(dims_top_down, differentials_top_down)
        n = self.length
        for k in range(n + 1):
            if self.rank(k) + self.rank(k + 1) != self.dim(k):
                raise DomainError("sequence not exact")
        if bases is not None:
            bases = list(bases)
            if len(bases) != n + 1:
                raise DomainError("need one basis per space")
            bases = list(reversed(bases))  # store by degree
            for k, g in enumerate(bases):
                if g.rows != self.dim(k) or g.cols != self.dim(k):
                    raise DomainError("basis shape mismatch")
                if g.rank() != g.rows:
                    raise DomainError("singular change of basis")
        self._bases = bases

    def basis(self, k: int):
        self._check_degree(k, self.length)
        if self._bases is None:
            return None
        return self._bases[k]

    def fingerprint(self) -> str:
        """The first 16 hex digits of the SHA-256 of the dims by degree and
        each basis's entry texts, top degree first (identity when unbased)."""
        digest = sha256()
        digest.update(repr(self._dims).encode())
        for k in range(self.length, -1, -1):
            g = self.basis(k) or ExactMatrix.identity(self.dim(k))
            digest.update(";".join(e.to_text() for e in g.entries).encode())
        return digest.hexdigest()[:16]


def torsion_scalar(seq: BasedExactSequence) -> QiScalar:
    """Torsion of a based exact sequence, per the conventions above: a
    nonzero scalar (a vanishing factor is an internal error)."""
    n = seq.length
    selections = {0: [], n + 1: []}
    for k in range(1, n + 1):
        selections[k] = list(seq.differential(k).rref().pivots)
    value = ONE
    for k in range(n, -1, -1):
        cols, own = selections[k + 1], selections[k]
        r, s = len(cols), len(own)
        c = ONE
        if r:  # d_{k+1} is read only here
            minor = seq.differential(k + 1)
            if s or cols != list(range(minor.cols)):
                own_set = set(own)
                minor = ExactMatrix(r, r, [minor[i, j]
                                           for i in range(minor.rows)
                                           if i not in own_set for j in cols])
            c = minor.determinant()
        if (sum(own) + s * r + s * (s - 1) // 2) % 2:
            c = -c
        g = seq.basis(k)
        if g is not None:
            c = c / g.determinant()
        if c.is_zero():
            raise RuntimeError("internal: torsion factor vanished")
        starred = (n - k) % 2 == 0
        value = value * (c.inverse() if starred else c)
    return value
