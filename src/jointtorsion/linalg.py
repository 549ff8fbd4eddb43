"""Dense exact linear algebra over the Gaussian rationals.

The basis conventions here are load-bearing for everything downstream: every
kernel, image, and quotient basis is derived from reduced row echelon form
with a leftmost first-nonzero pivot scan, so identical inputs always produce
identical bases and therefore identical torsion scalars.

Elimination is fraction-free over the Gaussian integers Z[i] (Bareiss): each
row is scaled by the lcm of its denominators, every update divides exactly by
the previous pivot, and entries become canonical scalars only when a result
is read.  Scaling rows leaves the zero pattern unchanged, so the pivot scan
picks the same pivots as plain Gauss-Jordan over Q(i), and every basis,
transform and determinant equals the one plain elimination gives.

A matrix is eliminated forward once, and that one pass gives its pivots,
its rank and, when it is square, its determinant.  The kernel takes rows,
not matrices: each caller hands ``_cleared_rows`` the rows it assembles,
and every elimination reduces only the rows and columns its caller reads.
The one Gauss-Jordan helper, ``_jordan``, takes the rows of [m | x] and
returns x reduced over m's columns, with x the unit rows for the
transform, and x = the free columns of f whose kernel vectors are read
beside m = f's pivot columns; a subquotient back-substitutes only the
rows of its projection.  So no identity, no stacked matrix and no column
selection is built only to be eliminated.

Every subquotient (kernel, cokernel, homology space) is a homology space
ker f / im g, represented by explicit matrices: the cycle map f, a boundary
basis, a representative basis whose classes form a basis of the quotient,
and a projection onto coordinates in that basis.  Whether im g lies in
ker f is a zero test of the product f * im g.  Beyond the forward passes
of f and g, one elimination of the boundaries in cycle coordinates picks
the representatives and gives the projection, and one pass builds the
representatives' kernel vectors alone.  Induced maps on subquotients are
then ordinary matrix products, and whether a map descends is checked
exactly by products with the cycle map and the projection, without
eliminating.

Every zero test of a product is ``ExactMatrix.kills``: d_k d_{k+1} = 0 in
a complex, im g in ker f in a subquotient and the descent of an induced
map.  It forms no product with no rows, no inner dimension or no
columns: such a product is zero, so no test of it can fail.
"""

from __future__ import annotations

from math import lcm, prod
from operator import mul

from .errors import DomainError
from .scalars import ONE, ZERO, QiScalar, _reduced


def _to_scalar(value) -> QiScalar:
    if isinstance(value, QiScalar):
        return value
    if isinstance(value, str):
        return QiScalar.parse(value)
    return QiScalar(value)


def _unit(i: int, n: int) -> tuple:
    """Row i of the n x n identity."""
    return (ZERO,) * i + (ONE,) + (ZERO,) * (n - i - 1)


# -- fraction-free elimination kernel ------------------------------------------
#
# A row is held as (re, im, den), the form (a + b i) / d of a QiScalar
# widened to a row: the real and imaginary parts of its Gaussian-integer
# numerators, each packed into one Python int by _Slots, over one clearing
# factor den, the lcm of the entries' denominators d.


class _Slots:
    """Packs a row of integers c_0 .. c_{w-1} into the one integer
    sum(c_j * 2**(j * bits)).

    Sums, differences, multiples and exact quotients of packed rows are the
    packed entrywise results, because packing evaluates the polynomial
    sum(c_j * t**j) at t = 2**bits, which is a ring homomorphism.  So one
    big-integer operation updates a whole row.  Reading entries back is
    exact while every |c_j| < 2**(bits - 1).
    """

    __slots__ = ("bits", "mask", "half", "offset")

    def __init__(self, bits: int, width: int):
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.half = 1 << (bits - 1)
        # half in every slot: adding it makes every digit nonnegative
        self.offset = self.half * (((1 << (bits * width)) - 1) // self.mask)

    def pack(self, values) -> int:
        x = 0
        if any(values):
            for c in reversed(values):
                x = (x << self.bits) + c
        return x

    def entry(self, x: int, j: int) -> int:
        return (((x + self.offset) >> (j * self.bits)) & self.mask) - self.half

    def unpack(self, x: int, start: int, width: int) -> list:
        """Entries start .. start+width-1 of the packed row x."""
        if not x:
            return [0] * width
        x += self.offset
        mask, half, bits = self.mask, self.half, self.bits
        return [((x >> s) & mask) - half
                for s in range(start * bits, (start + width) * bits, bits)]


def _cleared_rows(rows, width: int):
    """The rows, each a sequence of ``width`` QiScalars, scaled by the lcm
    of their denominators and packed.

    This is the one way into the elimination kernel, and its callers hand
    it the rows they assemble: a matrix's own rows, or rows with unit rows
    or chosen columns beside them, so no matrix is built only to be
    cleared.  The slot width holds Hadamard's bound on every minor (the
    product of the row norms), which bounds every entry fraction-free
    elimination produces.
    """
    cleared = []
    bits = 2
    for row in rows:
        den = lcm(*[e.d for e in row])
        if den == 1:
            re = [e.a for e in row]
            im = [e.b for e in row]
        else:
            re = [e.a * (den // e.d) for e in row]
            im = [e.b * (den // e.d) for e in row]
        norm_sq = sum(map(mul, re, re)) + sum(map(mul, im, im))
        bits += (norm_sq.bit_length() + 1) // 2
        cleared.append((re, im, den))
    slots = _Slots(bits, width)
    return [(slots.pack(re), slots.pack(im), den)
            for re, im, den in cleared], slots


def _fraction_free(rows: list, slots: _Slots, cols: int, top: int):
    """Fraction-free elimination over Z[i] (Bareiss, Math. Comp. 22, 1968).

    Scans columns ``0 .. cols-1`` for the first nonzero entry at or below the
    next pivot row and swaps that row up.  Every row below the pivot, and
    every row above it from row ``top`` on, becomes (a * row - f * pivot_row)
    / q, with a the new pivot, f the row's entry in the pivot column and q
    the previous pivot; the division is exact in Z[i].  Row scaling keeps
    the zero pattern, so the pivots are those of plain Gauss-Jordan.

    ``top`` = 0 is Gauss-Jordan and ``top`` = len(rows) the forward pass.
    Between them only rows ``top`` on are back-substituted (Nakos, Turner
    and Williams, SIGSAM Bull. 31(3), 1997), and the rows above ``top``
    keep only their forward updates.

    Works in place; returns (pivot columns, last pivot, number of swaps).
    """
    n = len(rows)
    entry = slots.entry
    pivots = []
    qr, qi = 1, 0
    swaps = 0
    for col in range(cols):
        k = len(pivots)
        if k >= n:
            break
        for src in range(k, n):
            re, im, _ = rows[src]
            ar, ai = entry(re, col), entry(im, col) if im else 0
            if ar or ai:
                break
        else:
            continue
        if src != k:
            rows[k], rows[src] = rows[src], rows[k]
            swaps += 1
        pre, pim, _ = rows[k]
        for r in range(min(top, k + 1), n):
            if r == k:
                continue
            re, im, den = rows[r]
            fr, fi = entry(re, col), entry(im, col) if im else 0
            if not (fr or fi) and ar == qr and ai == qi:
                continue
            tr = ar * re - ai * im - fr * pre + fi * pim
            ti = ar * im + ai * re - fr * pim - fi * pre
            if qi:
                nq = qr * qr + qi * qi
                tr, ti = (tr * qr + ti * qi) // nq, (ti * qr - tr * qi) // nq
            elif qr != 1:
                tr, ti = tr // qr, ti // qr
            rows[r] = (tr, ti, den)
        qr, qi = ar, ai
        pivots.append(col)
    return pivots, (qr, qi), swaps


def _quotients(re, im, gr, gi) -> list:
    """The entries (re[j] + im[j] i) / (gr + gi i) as canonical QiScalars."""
    if gi:
        re, im = ([a * gr + b * gi for a, b in zip(re, im)],
                  [b * gr - a * gi for a, b in zip(re, im)])
        gr = gr * gr + gi * gi
    elif gr < 0:
        re, im, gr = [-a for a in re], [-b for b in im], -gr
    return [_reduced(a, b, gr) for a, b in zip(re, im)]


class ExactMatrix:
    """Immutable dense matrix with QiScalar entries, stored row-major."""

    __slots__ = ("rows", "cols", "entries", "_rref")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DomainError(f"entry count {len(entries)} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._rref = None

    # -- constructors --------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DomainError("ragged rows")
        return cls(n, m, [_to_scalar(v) for r in rows for v in r])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [e for i in range(n) for e in _unit(i, n)])

    # -- access ----------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(e.to_text() for e in self.row(i))
                         for i in range(self.rows))
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, value) -> "ExactMatrix":
        value = _to_scalar(value)
        return ExactMatrix(self.rows, self.cols, [value * a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DomainError(f"shape mismatch {self.rows}x{self.cols} * "
                              f"{other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                acc = ZERO
                for t in range(k):
                    x = arow[t]
                    if x.is_zero():
                        continue
                    acc = acc + x * b[t * m + j]
                out.append(acc)
        return ExactMatrix(n, m, out)

    def kills(self, other: "ExactMatrix") -> bool:
        """Whether self * other is zero: the one zero test of a product.

        A product with no rows, no inner dimension or no columns is zero,
        and is not formed; any other product, and a pair whose shapes do
        not match, goes through ``*``."""
        if self.cols == other.rows and 0 in (self.rows, self.cols, other.cols):
            return True
        return not any((self * other).entries)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise DomainError("hstack row mismatch")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return ExactMatrix(self.rows, self.cols + other.cols, ent)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols:
            raise DomainError("vstack column mismatch")
        return ExactMatrix(self.rows + other.rows, self.cols,
                           self.entries + other.entries)

    def select_columns(self, indices) -> "ExactMatrix":
        idx = list(indices)
        ent = []
        for i in range(self.rows):
            base = i * self.cols
            for j in idx:
                ent.append(self.entries[base + j])
        return ExactMatrix(self.rows, len(idx), ent)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DomainError("shape mismatch")

    # -- echelon machinery ---------------------------------------------

    def rref(self) -> "RrefResult":
        """Reduced row echelon decomposition with a recorded transform.

        Deterministic by construction: pivots are found by scanning each
        column top-down for the first nonzero entry, with no magnitude
        heuristics, so the result depends only on the exact entries.  One
        forward elimination of m gives the pivots, the rank and, for a
        square m, the determinant; the transform comes from a pass of its
        own, run only when read.
        """
        if self._rref is not None:
            return self._rref
        if not (self.rows and self.cols):
            # nothing to eliminate: no pivots, and the empty determinant is 1
            self._rref = RrefResult(self.rows, self.cols, self.entries, (),
                                    ONE if self.is_square() else None)
            return self._rref
        rows, slots = _cleared_rows(
            [self.row(i) for i in range(self.rows)], self.cols)
        pivots, last, swaps = _fraction_free(rows, slots, self.cols,
                                             self.rows)
        det = None
        if self.is_square():
            det = ZERO
            if len(pivots) == self.rows:
                pr, pi = (-last[0], -last[1]) if swaps % 2 else last
                det = _quotients([pr], [pi],
                                 prod(den for _, _, den in rows), 0)[0]
        self._rref = RrefResult(self.rows, self.cols, self.entries, pivots, det)
        return self._rref

    def rank(self) -> int:
        return self.rref().rank

    def kernel_basis(self) -> "ExactMatrix":
        """Basis of the kernel as matrix columns, one per free column."""
        pivots = set(self.rref().pivots)
        return _kernel_vectors(self, [j for j in range(self.cols)
                                      if j not in pivots])

    def image_basis(self) -> "ExactMatrix":
        """Pivot columns of the original matrix, spanning the image."""
        return self.select_columns(self.rref().pivots)

    def determinant(self) -> QiScalar:
        """Exact determinant, read off the forward elimination of ``rref``:
        the last pivot, signed by the row swaps, over the product of the row
        clearing factors (zero when a column has no pivot)."""
        if not self.is_square():
            raise DomainError("determinant of non-square matrix")
        return self.rref().determinant

    def inverse(self) -> "ExactMatrix":
        if not self.is_square():
            raise DomainError("inverse of non-square matrix")
        res = self.rref()
        if res.rank != self.rows:
            raise DomainError("matrix is singular")
        return res.transform

    def pseudoinverse(self) -> "ExactMatrix":
        """Algebraic pseudoinverse from the rank factorization m = C R.

        C is the pivot columns of m and R the nonzero rows of its rref.
        R has an exact right inverse supported on the pivot columns, and the
        first ``rank`` rows of the recorded transform give a left inverse of
        C, so X = R_right * C_left satisfies m X m = m and X m X = X.  No
        inner product is involved; this is not a metric pseudoinverse.
        R_right selects, so X is C_left's row j placed at row pivots[j].
        """
        res = self.rref()
        n = self.rows
        ent = [ZERO] * (self.cols * n)
        for j, pcol in enumerate(res.pivots):
            ent[pcol * n:(pcol + 1) * n] = res.transform.row(j)
        return ExactMatrix(self.cols, n, ent)


class RrefResult:
    """The ``pivots`` and ``rank`` of a matrix m, the recorded
    ``transform``, an invertible matrix with transform * m = rref(m), and
    for a square m its ``determinant`` (else None).

    Pivots, rank and determinant come from one forward elimination of m.
    Below the next pivot row the forward and the Gauss-Jordan elimination
    make the same updates, so they find the same pivots.  Most callers need
    only those, so ``transform`` is one Gauss-Jordan pass over [m | I], run
    when first read; rref(m) itself is never built.  The result keeps m's
    shape and entries rather than m, which caches it.  A matrix with no
    rows or no columns is not eliminated at all: it has no pivots and its
    transform is the identity.
    """

    __slots__ = ("pivots", "rank", "determinant", "_shape", "_entries",
                 "_transform")

    def __init__(self, rows, cols, entries, pivots, determinant):
        self.pivots = tuple(pivots)
        self.rank = len(pivots)
        self.determinant = determinant
        self._shape = (rows, cols)
        self._entries = entries
        self._transform = None

    @property
    def transform(self) -> ExactMatrix:
        if self._transform is None:
            n, cols = self._shape
            e = self._entries
            rows = [e[i * cols:(i + 1) * cols] + _unit(i, n) for i in range(n)]
            # with no columns to eliminate, the unit rows are the transform
            self._transform = (_jordan(rows, cols, n) if n and cols else
                               ExactMatrix(n, n, [x for r in rows for x in r]))
        return self._transform


def _jordan(rows: list, cols: int, width: int) -> ExactMatrix:
    """The ``width`` columns after the first ``cols`` of ``rows``, once a
    Gauss-Jordan pass has reduced the rows over those ``cols`` columns."""
    cleared, slots = _cleared_rows(rows, cols + width)
    pivots, last, _ = _fraction_free(cleared, slots, cols, 0)
    return _block(cleared, slots, last, len(pivots), cols, width)


def _kernel_vectors(f: ExactMatrix, free: list) -> ExactMatrix:
    """The kernel vectors of f at its free columns ``free``: 1 there, minus
    that column of rref(f) at f's pivot columns.  These fix every row
    operation, so a pass over them beside ``free`` gives those columns."""
    pivots = f.rref().pivots
    k = len(free)
    ent = [ZERO] * (f.cols * k)
    if pivots and free:
        entries, w, picked = f.entries, f.cols, pivots + tuple(free)
        reduced = _jordan([[entries[i * w + j] for j in picked]
                           for i in range(f.rows)], len(pivots), k)
        for prow, pcol in enumerate(pivots):
            ent[pcol * k:(pcol + 1) * k] = [-e for e in reduced.row(prow)]
    for c, j in enumerate(free):
        ent[j * k + c] = ONE
    return ExactMatrix(f.cols, k, ent)


def _block(rows, slots, last, rank, start, width) -> ExactMatrix:
    """Columns start .. start+width-1 of rows eliminated by _fraction_free,
    as canonical scalars.  The first ``rank`` rows are pivot rows, which
    are ``last``-pivot multiples of their final values; rows past the rank
    were never normalised and also carry their clearing factor."""
    pr, pi = last
    unpack = slots.unpack
    entries = []
    for k, (re, im, den) in enumerate(rows):
        re, im = unpack(re, start, width), unpack(im, start, width)
        if k < rank:
            entries += _quotients(re, im, pr, pi)
        else:
            entries += _quotients(re, im, pr * den, pi * den)
    return ExactMatrix(len(rows), width, entries)


def in_span(basis: ExactMatrix, vectors: ExactMatrix) -> bool:
    """Exact containment test span(vectors) <= span(basis).  Only tests
    call it; it stays while the benchmark's tracer wraps it."""
    if vectors.cols == 0:
        return True
    return basis.hstack(vectors).rank() == basis.rank()


class Subquotient:
    """A based subquotient ker f / im g of an ambient coordinate space.

    ``cycle_map`` is f, whose kernel is the cycle space; ``boundary_basis``
    spans im g.  ``rep_basis`` columns are cycles whose classes form the
    chosen basis of the quotient; ``project_map`` is a left inverse of
    ``rep_basis`` that kills the boundaries, so it maps a cycle to the
    coordinates of its class.  A cycle is a boundary exactly when its
    projection vanishes, so whether a map descends to a subquotient is
    decided by products with ``cycle_map`` and ``project_map``.
    """

    __slots__ = ("cycle_map", "boundary_basis", "rep_basis", "project_map")

    def __init__(self, cycle_map, boundary_basis, rep_basis, project_map):
        self.cycle_map = cycle_map
        self.boundary_basis = boundary_basis
        self.rep_basis = rep_basis
        self.project_map = project_map

    @property
    def dim(self) -> int:
        return self.rep_basis.cols

    def with_rep_transform(self, g: ExactMatrix) -> "Subquotient":
        """Recombine the representative basis by an invertible matrix g.

        Both spans stay, and so does the cycle map."""
        if g.rows != self.dim or g.cols != self.dim:
            raise DomainError("rebase shape mismatch")
        return Subquotient(self.cycle_map, self.boundary_basis,
                           self.rep_basis * g, g.inverse() * self.project_map)


def build_subquotient(f: ExactMatrix, g: ExactMatrix) -> Subquotient:
    """Construct the based subquotient ker f / im g, with f as its cycle map.

    The cycles are f's kernel vectors, the boundaries g's image basis,
    which f must kill.  A cycle's coordinates are its entries at f's free
    columns, so one elimination of [B | P], the boundaries' rows at those
    columns each followed by that row of I, gives the rest.  Its pivots in
    B are all of B, those in P the free columns of the representatives, the
    kernel vectors that extend the boundaries to a basis of the cycles;
    only they are built.  Its reduced P rows past the boundaries are the
    projection: they kill the boundaries and f's pivot columns, the
    standard complement of the cycles.  Only those rows are read, so only
    they are back-substituted; a zero-dimensional quotient has none, and
    its elimination is a forward pass.
    """
    if g.rows != f.cols:
        raise DomainError("ambient dimension mismatch")
    boundaries = g.image_basis()
    if not f.kills(boundaries):
        raise DomainError("not a subquotient")
    n, nb, pivot_set = f.cols, boundaries.cols, set(f.rref().pivots)
    free = [j for j in range(n) if j not in pivot_set]
    rows, slots = _cleared_rows(
        [boundaries.row(j) + _unit(j, n) for j in free], nb + n)
    pivots, last, _ = _fraction_free(rows, slots, nb + n, nb)
    reps = [p - nb for p in pivots[nb:]]
    project = _block(rows[nb:], slots, last, len(reps), nb, n)
    return Subquotient(f, boundaries, _kernel_vectors(f, reps), project)


def induced_map(m: ExactMatrix, src: Subquotient, dst: Subquotient) -> ExactMatrix:
    """Matrix of the map induced by m between two subquotients.

    Checked exactly: m must carry cycles into cycles and boundaries into
    boundaries, otherwise the induced map does not exist.  The source
    cycles are spanned by its boundaries and representatives, so that holds
    exactly when dst's cycle map kills the images of both and dst's
    projection kills the image of the boundaries.  An image with no columns
    is not formed, since nothing can fail on it, and a result with no rows
    or no columns is built without a product.
    """
    if m.cols != src.cycle_map.cols or m.rows != dst.cycle_map.cols:
        raise DomainError("ambient shape mismatch")
    if src.dim:
        image = m * src.rep_basis
        if not dst.cycle_map.kills(image):
            raise DomainError("map does not descend")
    if src.boundary_basis.cols:
        moved = m * src.boundary_basis
        if not (dst.cycle_map.kills(moved) and dst.project_map.kills(moved)):
            raise DomainError("map does not descend")
    if not (src.dim and dst.dim):
        return ExactMatrix(dst.dim, src.dim, ())
    return dst.project_map * image
