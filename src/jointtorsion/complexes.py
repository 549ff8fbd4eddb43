"""Chain complexes over Q(i), homology, and torsion of based exact sequences.

Conventions, fixed once and used everywhere:

* A complex ``0 -> V_n -> ... -> V_0 -> 0`` is constructed from top-degree
  data (dims and differentials listed from degree n down), stored by degree.
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

import hashlib

from .errors import DomainError
from .linalg import ExactMatrix, Subquotient, build_subquotient
from .scalars import ONE, QiScalar


class ChainComplexSpec:
    """A finite chain complex of coordinate spaces with exact differentials."""

    def __init__(self, dims_top_down, differentials_top_down):
        dims = [int(d) for d in dims_top_down]
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
            if not (self._diffs[k - 1] * self._diffs[k]).is_zero():
                raise DomainError("differentials do not compose to zero")

    def dim(self, k: int) -> int:
        return self._dims[k]

    @property
    def dims_by_degree(self) -> list:
        return list(self._dims)

    def differential(self, k: int) -> ExactMatrix:
        """d_k for 0 <= k <= n+1, with zero-shaped maps at the ends."""
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
        if not 0 <= k <= self.length:
            raise DomainError(f"degree {k} out of range")
        return build_subquotient(self.differential(k),
                                 self.differential(k + 1))

    def homology_dims(self) -> list:
        return [self._dims[k] - self.rank(k) - self.rank(k + 1)
                for k in range(self.length + 1)]


class BasedExactSequence:
    """An exact complex together with an ordered basis for each space."""

    def __init__(self, complex_spec: ChainComplexSpec, bases=None):
        self.complex = complex_spec
        n = complex_spec.length
        for k in range(n + 1):
            rk = complex_spec.rank(k) + complex_spec.rank(k + 1)
            if rk != complex_spec.dim(k):
                raise DomainError("sequence not exact")
        if bases is not None:
            bases = list(bases)
            if len(bases) != n + 1:
                raise DomainError("need one basis per space")
            bases = list(reversed(bases))  # store by degree
            for k, g in enumerate(bases):
                if g.rows != complex_spec.dim(k) or g.cols != complex_spec.dim(k):
                    raise DomainError("basis shape mismatch")
                if g.rank() != g.rows:
                    raise DomainError("singular change of basis")
        self._bases = bases
        self._basis_inverses = None

    @property
    def length(self) -> int:
        return self.complex.length

    def basis(self, k: int):
        if self._bases is None:
            return None
        return self._bases[k]

    def basis_inverse(self, k: int):
        if self._bases is None:
            return None
        if self._basis_inverses is None:
            self._basis_inverses = [None] * (self.length + 1)
        if self._basis_inverses[k] is None:
            self._basis_inverses[k] = self._bases[k].inverse()
        return self._basis_inverses[k]

    def bases_top_down(self):
        n = self.length
        if self._bases is None:
            return [ExactMatrix.identity(self.complex.dim(k))
                    for k in range(n, -1, -1)]
        return [self._bases[k] for k in range(n, -1, -1)]

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(repr(self.complex.dims_by_degree).encode())
        for g in self.bases_top_down():
            digest.update(";".join(e.to_text() for e in g.entries).encode())
        return digest.hexdigest()[:16]


def torsion_scalar(seq: BasedExactSequence, selector=None) -> QiScalar:
    """Torsion of a based exact sequence, per the conventions above: a
    nonzero scalar (a vanishing factor is an internal error).

    ``selector`` optionally overrides the generator choice: it gets the
    degree and the differential and must return column indices on which the
    differential is injective with full image rank.  Any valid selection
    yields the same value; this hook exists so tests can prove that.
    """
    cpx = seq.complex
    n = cpx.length
    selections = {0: [], n + 1: []}
    for k in range(1, n + 1):
        d = cpx.differential(k)
        if selector is None:
            selections[k] = list(d.rref().pivots)
        else:
            # The order of a selection is immaterial: it permutes the
            # columns of two adjacent factors with opposite exponents.
            chosen = sorted(selector(k, d))
            sub = d.select_columns(chosen)
            if len(chosen) != cpx.rank(k) or sub.rank() != cpx.rank(k):
                raise DomainError("invalid generator selection")
            selections[k] = chosen
    value = ONE
    for k in range(n, -1, -1):
        d_up = cpx.differential(k + 1)
        cols, own = selections[k + 1], selections[k]
        r, s = len(cols), len(own)
        if r + s != cpx.dim(k):
            raise RuntimeError("internal: torsion block is not square")
        if not r:
            c = ONE
        elif not s and cols == list(range(d_up.cols)):
            c = d_up.determinant()
        else:
            own_set = set(own)
            c = ExactMatrix(r, r, [d_up[i, j] for i in range(d_up.rows)
                                   if i not in own_set for j in cols]
                            ).determinant()
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
